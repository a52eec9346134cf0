// Seeded-replay goldens: a fault scenario plus one seed fully determines
// the run.  Each golden scenario is executed twice end to end — fresh
// network, fresh injector, fresh driver rng — and the canonical
// SearchOutcome byte streams, their FNV-1a fingerprints, the per-epoch
// stats, and the (timer-free) metrics JSON snapshots must all be identical.
// This is the in-process twin of CI's `aar_sim faults` determinism gate.

#include "overlay/fault_experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/registry.hpp"
#include "sim/experiment.hpp"

namespace aar::overlay {
namespace {

fault::Scenario golden(const std::string& name) {
  return fault::load_scenario(std::string(AAR_TEST_DATA_DIR) + "/" + name);
}

/// Run the scenario and snapshot the obs registry (timers excluded — they
/// record wall clock, the one legitimately non-deterministic field).
struct ReplayCapture {
  FaultRunResult result;
  std::string metrics_json;
};

ReplayCapture run_and_capture(const fault::Scenario& scenario,
                              std::uint64_t seed) {
  obs::Registry::global().reset();
  ReplayCapture capture;
  capture.result = sim::run_fault_scenario(scenario, seed);
  std::ostringstream json;
  obs::Registry::global().write_json(json, {}, /*include_timers=*/false);
  capture.metrics_json = json.str();
  return capture;
}

class GoldenReplay : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenReplay, SameSeedReplaysByteIdentically) {
  const fault::Scenario scenario = golden(GetParam());
  const ReplayCapture first = run_and_capture(scenario, 7);
  const ReplayCapture second = run_and_capture(scenario, 7);

  ASSERT_FALSE(first.result.outcome_bytes.empty());
  EXPECT_EQ(first.result.outcome_bytes, second.result.outcome_bytes);
  EXPECT_EQ(first.result.outcome_hash, second.result.outcome_hash);
  EXPECT_EQ(first.result.searches, second.result.searches);
  EXPECT_EQ(first.result.hits, second.result.hits);

  ASSERT_EQ(first.result.epochs.size(), second.result.epochs.size());
  for (std::size_t e = 0; e < first.result.epochs.size(); ++e) {
    EXPECT_EQ(first.result.epochs[e].hits, second.result.epochs[e].hits);
    EXPECT_EQ(first.result.epochs[e].timeouts,
              second.result.epochs[e].timeouts);
    EXPECT_EQ(first.result.epochs[e].retries, second.result.epochs[e].retries);
    EXPECT_EQ(first.result.epochs[e].dropped, second.result.epochs[e].dropped);
    EXPECT_EQ(first.result.epochs[e].messages,
              second.result.epochs[e].messages);
  }

  // Metrics JSON (minus timers) is part of the replay contract.
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST_P(GoldenReplay, DifferentSeedsDiverge) {
  const fault::Scenario scenario = golden(GetParam());
  const FaultRunResult a = sim::run_fault_scenario(scenario, 7);
  const FaultRunResult b = sim::run_fault_scenario(scenario, 8);
  EXPECT_NE(a.outcome_hash, b.outcome_hash);
}

TEST_P(GoldenReplay, FaultsActuallyInjected) {
  // Guard against a silently disabled injector: the golden scenarios all
  // carry nonzero drop rates, so faulted runs must lose messages and
  // diverge from their lossless twins.
  const fault::Scenario scenario = golden(GetParam());
  const FaultRunResult faulted = sim::run_fault_scenario(scenario, 7, true);
  const FaultRunResult lossless = sim::run_fault_scenario(scenario, 7, false);
  std::uint64_t dropped = 0;
  for (const FaultEpochStats& e : faulted.epochs) dropped += e.dropped;
  EXPECT_GT(dropped, 0u);
  EXPECT_NE(faulted.outcome_hash, lossless.outcome_hash);
}

// Outcome digests at seed 7, pinned from the reference simulator (the
// faulted ones re-recorded once when a forward's fault verdict became a
// hash of its key): the run-twice checks above cannot see a behaviour
// change, these can.
TEST_P(GoldenReplay, MatchesPinnedDigests) {
  struct Pinned {
    const char* file;
    std::uint64_t faulted;
    std::uint64_t lossless;
  };
  constexpr Pinned kPinned[] = {
      {"golden_small.v1", 0x844687b27a90f0e8ULL, 0xd48f07f64d78cc4eULL},
      {"golden_churnstorm.v1", 0x0b380a87cbd78d63ULL,
       0x535df5762e98d7a1ULL},
  };
  const fault::Scenario scenario = golden(GetParam());
  for (const Pinned& pinned : kPinned) {
    if (std::string(pinned.file) != GetParam()) continue;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const sim::EngineRunOptions options{.threads = threads};
      EXPECT_EQ(
          sim::run_fault_scenario(scenario, 7, true, options).outcome_hash,
          pinned.faulted)
          << "threads " << threads;
      EXPECT_EQ(
          sim::run_fault_scenario(scenario, 7, false, options).outcome_hash,
          pinned.lossless)
          << "threads " << threads;
    }
    return;
  }
  FAIL() << "no pinned digests for " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Goldens, GoldenReplay,
                         ::testing::Values("golden_small.v1",
                                           "golden_churnstorm.v1"),
                         [](const auto& golden) {
                           std::string name = golden.param;
                           name = name.substr(0, name.find('.'));
                           return name;
                         });

TEST(OutcomeEncoding, CanonicalAndOrderSensitive) {
  SearchOutcome a;
  a.hit = true;
  a.hops_to_first_hit = 3;
  a.query_messages = 17;
  a.retry_stamps = {4, 9};
  a.retries_used = 2;

  std::vector<std::uint8_t> one, two, reordered;
  append_outcome(one, a);
  append_outcome(two, a);
  EXPECT_EQ(one, two);

  SearchOutcome b = a;
  b.retry_stamps = {9, 4};
  append_outcome(reordered, b);
  EXPECT_NE(one, reordered);
  EXPECT_NE(fnv1a(one), fnv1a(reordered));

  // Fixed-width encoding: size is a function of retry count only.
  EXPECT_EQ(one.size(), 5u + 4u * 4u + 5u * 8u + 4u + 2u * 8u);
}

TEST(OutcomeEncoding, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors ("", "a", "foobar").
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a({'a'}), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a({'f', 'o', 'o', 'b', 'a', 'r'}), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace aar::overlay
