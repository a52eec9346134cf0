// Byte pins for every on-disk and on-wire format.
//
// FNV-1a digests of the exact bytes each encoder emits for a fixed input:
// aartr pairs/queries/replies files (small chunks, so several chunk frames
// and a footer index), an lsm run file and manifest after a fixed
// add/flush/compact schedule, and one Gnutella 0.4 frame per descriptor
// type.  The round-trip suites accept any self-consistent encoding; these
// pins fail on any change to the bytes themselves (endianness, varint
// layout, CRC, framing).  A changed digest here is a format break.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gnutella/codec.hpp"
#include "lsm/store.hpp"
#include "overlay/fault_experiment.hpp"
#include "store/writer.hpp"
#include "test_tmp.hpp"
#include "trace/database.hpp"
#include "trace/generator.hpp"

namespace aar {
namespace {

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t file_digest(const std::string& path) {
  const std::vector<std::uint8_t> bytes = file_bytes(path);
  EXPECT_FALSE(bytes.empty()) << path;
  return overlay::fnv1a(bytes);
}

TEST(FormatPins, AartrFilesAreByteStable) {
  const aar::testing::ScopedTempDir dir("aar_pins");
  trace::TraceConfig config;
  config.seed = 7;
  config.block_size = 500;
  trace::TraceGenerator pair_generator(config);
  const auto pairs = pair_generator.generate_pairs(1'000);
  store::write_pairs_file(dir.path("p.aartr"), pairs, 64);

  trace::TraceConfig db_config;
  db_config.seed = 11;
  db_config.block_size = 400;
  trace::TraceGenerator generator(db_config);
  trace::Database db;
  db.import(generator, 800);
  store::write_queries_file(dir.path("q.aartr"), db.queries(), 100);
  store::write_replies_file(dir.path("r.aartr"), db.replies(), 100);

  EXPECT_EQ(file_digest(dir.path("p.aartr")), 0xc2f897b5dcd936cfull);
  EXPECT_EQ(file_digest(dir.path("q.aartr")), 0x9932dc9dd9bd1c2full);
  EXPECT_EQ(file_digest(dir.path("r.aartr")), 0x318efb2c50d24c16ull);
}

TEST(FormatPins, LsmRunAndManifestAreByteStable) {
  const aar::testing::ScopedTempDir dir("aar_pins");
  lsm::StoreOptions options;
  options.memtable_bytes = 8 << 10;
  options.level_fanout = 2;
  std::string manifest;
  {
    lsm::Store store(dir.path("lsm"), options);
    std::uint64_t state = 12345;
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 400; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const auto antecedent = static_cast<std::uint32_t>(state >> 54);
        const auto consequent = static_cast<std::uint32_t>((state >> 40) & 0x3ff);
        const auto delta = static_cast<std::int64_t>((state >> 20) % 9) - 3;
        store.add(antecedent, consequent, delta == 0 ? 1 : delta);
      }
      store.flush();
      if (round % 2 == 1) (void)store.compact();
    }
    store.maintain();
    manifest = store.manifest_bytes();
    EXPECT_GE(store.stats().compactions, 2u);
    EXPECT_GE(store.stats().runs, 2u);
  }
  EXPECT_EQ(overlay::fnv1a(std::vector<std::uint8_t>(manifest.begin(),
                                                     manifest.end())),
            0xc8f0bcdb8c92a152ull);

  std::vector<std::string> runs;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path("lsm"))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("run-", 0) == 0) runs.push_back(name);
  }
  std::sort(runs.begin(), runs.end());
  ASSERT_FALSE(runs.empty());
  std::vector<std::uint8_t> all;
  for (const std::string& name : runs) {
    all.insert(all.end(), name.begin(), name.end());
    const std::vector<std::uint8_t> bytes = file_bytes(dir.path("lsm/" + name));
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(overlay::fnv1a(all), 0x6a21bd01c46041c1ull);
}

TEST(FormatPins, GnutellaFramesAreByteStable) {
  using namespace gnutella;
  gnutella::Pong pong;
  pong.port = 6347;
  pong.ip = 0x0a000102u;
  pong.shared_files = 123'456;
  pong.shared_kb = 0x89abcdefu;
  const Message ping = make_ping(make_wire_guid(1), 7);
  const Message pong_frame = make_pong(make_wire_guid(2), 5, pong);
  Message query = make_query(make_wire_guid(3), 4, 0x1234, "free jazz mp3");
  query.header.hops = 2;
  Message hit = make_query_hit(
      make_wire_guid(3), 6, make_wire_guid(4),
      {{7, 0x00fedcbau, "a.mp3"}, {0x80000001u, 42, "track two.ogg"}});
  hit.query_hit.port = 0xbeef;
  hit.query_hit.ip = 0xc0a80001u;
  hit.query_hit.speed = 56;
  Message push;
  push.header.guid = make_wire_guid(5);
  push.header.type = MessageType::kPush;
  push.header.ttl = 3;
  for (std::uint8_t b = 0; b < 26; ++b) {
    push.opaque.push_back(static_cast<std::uint8_t>(b * 37));
  }

  EXPECT_EQ(overlay::fnv1a(serialize(ping)), 0x443ebaf8f4e85c81ull);
  EXPECT_EQ(overlay::fnv1a(serialize(pong_frame)), 0xee39c96b9fe28f93ull);
  EXPECT_EQ(overlay::fnv1a(serialize(query)), 0x625d6b5a912a5aeaull);
  EXPECT_EQ(overlay::fnv1a(serialize(hit)), 0x7abc1bc156e0d728ull);
  EXPECT_EQ(overlay::fnv1a(serialize(push)), 0x5808a8650914bfc6ull);
}

}  // namespace
}  // namespace aar
