#include "workload/content.hpp"
#include "workload/interests.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

namespace aar::workload {

namespace {

// --- InterestProfile ---------------------------------------------------------

TEST(InterestProfile, BreadthAndWeights) {
  util::Rng rng(1);
  const auto profile = InterestProfile::sample(rng, 64, 3);
  EXPECT_EQ(profile.breadth(), 3u);
  const double total = std::accumulate(profile.weights().begin(),
                                       profile.weights().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Geometric decay: primary dominates.
  EXPECT_GT(profile.weights()[0], profile.weights()[1]);
  EXPECT_GT(profile.weights()[1], profile.weights()[2]);
}

TEST(InterestProfile, CategoriesAreDistinctAndInUniverse) {
  util::Rng rng(2);
  const auto profile = InterestProfile::sample(rng, 10, 5);
  std::set<Category> unique(profile.categories().begin(),
                            profile.categories().end());
  EXPECT_EQ(unique.size(), profile.breadth());
  for (Category cat : profile.categories()) EXPECT_LT(cat, 10u);
}

TEST(InterestProfile, BreadthClampsToUniverse) {
  util::Rng rng(3);
  const auto profile = InterestProfile::sample(rng, 2, 10);
  EXPECT_EQ(profile.breadth(), 2u);
}

TEST(InterestProfile, SamplesOnlyOwnCategories) {
  util::Rng rng(4);
  const auto profile = InterestProfile::sample(rng, 100, 3);
  for (int i = 0; i < 1'000; ++i) {
    const Category cat = profile.sample_category(rng);
    EXPECT_NE(std::find(profile.categories().begin(),
                        profile.categories().end(), cat),
              profile.categories().end());
  }
}

TEST(InterestProfile, SamplingFollowsWeights) {
  util::Rng rng(5);
  const auto profile = InterestProfile::sample(rng, 100, 2, 0.5);
  int primary = 0;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) {
    primary += profile.sample_category(rng) == profile.categories()[0] ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(primary) / kSamples, 2.0 / 3.0, 0.02);
}

TEST(InterestProfile, DriftKeepsPrimaryAndBreadth) {
  util::Rng rng(6);
  auto profile = InterestProfile::sample(rng, 1'000, 4);
  const Category primary = profile.categories()[0];
  for (int i = 0; i < 50; ++i) profile.drift(rng, 1'000);
  EXPECT_EQ(profile.categories()[0], primary);
  EXPECT_EQ(profile.breadth(), 4u);
  std::set<Category> unique(profile.categories().begin(),
                            profile.categories().end());
  EXPECT_EQ(unique.size(), 4u);  // still distinct
}

TEST(InterestProfile, DriftOnSingletonIsNoop) {
  util::Rng rng(7);
  auto profile = InterestProfile::sample(rng, 100, 1);
  const Category primary = profile.categories()[0];
  profile.drift(rng, 100);
  EXPECT_EQ(profile.categories()[0], primary);
}

TEST(InterestProfile, SimilarityBoundsAndIdentity) {
  util::Rng rng(8);
  const auto a = InterestProfile::sample(rng, 20, 3);
  const auto b = InterestProfile::sample(rng, 20, 3);
  EXPECT_NEAR(a.similarity(a), 1.0, 1e-12);
  const double sim = a.similarity(b);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
  EXPECT_DOUBLE_EQ(sim, b.similarity(a));  // symmetric
}

// --- ContentCatalogue --------------------------------------------------------

TEST(ContentCatalogue, EveryFileHasCategory) {
  util::Rng rng(9);
  ContentCatalogue catalogue({.files = 500, .categories = 8}, rng);
  EXPECT_EQ(catalogue.size(), 500u);
  std::size_t total = 0;
  for (Category cat = 0; cat < 8; ++cat) {
    for (FileId file : catalogue.files_in(cat)) {
      EXPECT_EQ(catalogue.category_of(file), cat);
    }
    total += catalogue.files_in(cat).size();
  }
  EXPECT_EQ(total, 500u);  // partition
}

TEST(ContentCatalogue, SampleInReturnsRequestedCategory) {
  util::Rng rng(10);
  ContentCatalogue catalogue({.files = 2'000, .categories = 4}, rng);
  for (Category cat = 0; cat < 4; ++cat) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(catalogue.category_of(catalogue.sample_in(cat, rng)), cat);
    }
  }
}

TEST(ContentCatalogue, GlobalSamplingIsZipfSkewed) {
  util::Rng rng(11);
  ContentCatalogue catalogue({.files = 1'000, .categories = 8,
                              .popularity_skew = 1.0},
                             rng);
  int top_decile = 0;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) {
    if (catalogue.sample_global(rng) < 100) ++top_decile;
  }
  // Under Zipf(1.0) the top 10% of ranks carry far more than 10% of mass.
  EXPECT_GT(static_cast<double>(top_decile) / kSamples, 0.4);
}

TEST(LocalStore, PopulatesRequestedCount) {
  util::Rng rng(12);
  ContentCatalogue catalogue({.files = 5'000, .categories = 16}, rng);
  const auto profile = InterestProfile::sample(rng, 16, 3);
  LocalStore store;
  store.populate(catalogue, profile, 40, rng);
  EXPECT_EQ(store.size(), 40u);
  for (FileId file : store.files()) EXPECT_LT(file, 5'000u);
}

TEST(LocalStore, ContentMatchesInterests) {
  util::Rng rng(13);
  ContentCatalogue catalogue({.files = 5'000, .categories = 50}, rng);
  const auto profile = InterestProfile::sample(rng, 50, 2);
  LocalStore store;
  store.populate(catalogue, profile, 50, rng);
  std::size_t in_profile = 0;
  for (FileId file : store.files()) {
    const Category cat = catalogue.category_of(file);
    if (std::find(profile.categories().begin(), profile.categories().end(),
                  cat) != profile.categories().end()) {
      ++in_profile;
    }
  }
  // Interest locality: everything the peer shares is from its categories.
  EXPECT_EQ(in_profile, store.size());
}

TEST(LocalStore, HasAndInsert) {
  LocalStore store;
  EXPECT_FALSE(store.has(7));
  store.insert(7);
  EXPECT_TRUE(store.has(7));
  store.insert(7);
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace aar::workload
