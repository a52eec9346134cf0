#include "store/reader.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "test_tmp.hpp"
#include "store/block_source.hpp"
#include "store/format.hpp"
#include "store/writer.hpp"
#include "trace/block_source.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/bytes.hpp"

namespace aar::store {
namespace {

using util::ByteReader;
using util::crc32;
using util::unzigzag;
using util::zigzag;

using trace::QueryRecord;
using trace::QueryReplyPair;
using trace::ReplyRecord;

class StoreTest : public ::testing::Test {
 protected:
  // Shared process-unique prefix (tests/test_tmp.hpp): fixed names are
  // flaky under ctest -j.
  std::string path(const char* name) {
    return aar::testing::unique_path(name);
  }
  void TearDown() override {
    for (const char* name : {"aar_s.aartr", "aar_s2.aartr", "aar_s.csv"}) {
      std::remove(path(name).c_str());
    }
  }
};

std::vector<QueryReplyPair> sample_pairs(std::size_t n, std::uint64_t seed = 7) {
  trace::TraceConfig config;
  config.seed = seed;
  config.block_size = 500;
  trace::TraceGenerator generator(config);
  return generator.generate_pairs(n);
}

TEST(StoreFormat, Crc32MatchesKnownVectors) {
  // IEEE CRC32 of "123456789" is the classic check value.
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Incremental chaining equals one-shot.
  const std::uint32_t part = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, part), 0xcbf43926u);
}

/// Deterministic pseudo-random bytes (the CRC differential's input).
std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& byte : bytes) byte = static_cast<unsigned char>(engine());
  return bytes;
}

class Crc32Differential : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::crc32_clmul_supported()) {
      GTEST_SKIP() << "no PCLMULQDQ on this CPU: crc32 runs the table path";
    }
  }
};

TEST_F(Crc32Differential, EveryLengthUpTo1024AtEveryStartOffset) {
  const auto bytes = random_bytes(1024 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t size = 0; size <= 1024; ++size) {
      const unsigned char* data = bytes.data() + offset;
      const std::uint32_t table = util::crc32_table(data, size);
      ASSERT_EQ(util::crc32_clmul(data, size), table)
          << "offset " << offset << " size " << size;
      ASSERT_EQ(crc32(data, size), table);
    }
  }
}

TEST_F(Crc32Differential, ChunkSizedBufferAtEveryStartOffset) {
  const std::size_t chunk = 370 * 1024;  // an aartr pairs chunk's payload
  const auto bytes = random_bytes(chunk + 16, 2);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    EXPECT_EQ(util::crc32_clmul(bytes.data() + offset, chunk),
              util::crc32_table(bytes.data() + offset, chunk))
        << "offset " << offset;
  }
  // Constant runs stress the reduction differently from random bytes.
  const std::vector<unsigned char> zeros(chunk, 0);
  const std::vector<unsigned char> ones(chunk, 0xff);
  EXPECT_EQ(util::crc32_clmul(zeros.data(), chunk),
            util::crc32_table(zeros.data(), chunk));
  EXPECT_EQ(util::crc32_clmul(ones.data(), chunk),
            util::crc32_table(ones.data(), chunk));
}

TEST_F(Crc32Differential, ChainedSeedsEqualOneShot) {
  const auto bytes = random_bytes(4096, 3);
  const std::uint32_t whole = util::crc32_table(bytes.data(), bytes.size());
  for (const std::size_t split :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{63},
        std::size_t{64}, std::size_t{65}, std::size_t{1000}, std::size_t{4032},
        std::size_t{4095}, std::size_t{4096}}) {
    const unsigned char* a = bytes.data();
    const unsigned char* b = bytes.data() + split;
    const std::size_t b_size = bytes.size() - split;
    EXPECT_EQ(util::crc32_clmul(b, b_size, util::crc32_clmul(a, split)), whole)
        << "split " << split;
    EXPECT_EQ(util::crc32_table(b, b_size, util::crc32_clmul(a, split)), whole);
    EXPECT_EQ(util::crc32_clmul(b, b_size, util::crc32_table(a, split)), whole);
    EXPECT_EQ(crc32(b, b_size, crc32(a, split)), whole);
  }
  // A nonzero seed on the folded path, against the table.
  EXPECT_EQ(util::crc32_clmul(bytes.data(), 777, 0xdeadbeefu),
            util::crc32_table(bytes.data(), 777, 0xdeadbeefu));
}

TEST(StoreFormat, ZigzagRoundTrips) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{1234},
        std::int64_t{-1234}, std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

const unsigned char* bytes_of(const std::string& buffer) {
  return reinterpret_cast<const unsigned char*>(buffer.data());
}

TEST(StoreFormat, VarintRoundTrips) {
  constexpr std::uint64_t kNine = std::uint64_t{1} << 56;  // 9-byte varint
  constexpr std::uint64_t kTen = std::uint64_t{1} << 63;   // 10-byte varint
  std::string buffer;
  const std::vector<std::uint64_t> values{
      0, 1, 127, 128, 300, 16'383, 16'384, kNine, kTen,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) util::put_varint(buffer, v);
  // Followed by 10+ bytes: the long values decode on the unchecked path.
  buffer.append(10, '\x01');
  ByteReader cursor(bytes_of(buffer), buffer.size());
  for (const std::uint64_t v : values) EXPECT_EQ(cursor.varint(), v);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(cursor.varint(), 1u);
  EXPECT_TRUE(cursor.done());

  // As the stream's tail.  A 9-byte varint has fewer than 10 bytes left and
  // takes the checked path; a complete 10-byte one always has 10 left.
  for (const std::uint64_t v :
       {kNine, kNine + 12'345, kTen, std::numeric_limits<std::uint64_t>::max()}) {
    std::string tail;
    util::put_varint(tail, v);
    ByteReader reader(bytes_of(tail), tail.size());
    EXPECT_EQ(reader.varint(), v);
    EXPECT_TRUE(reader.done());
  }

  // Little-endian fixed widths, identical on both sink types.
  std::string text;
  std::vector<std::uint8_t> wire;
  util::put_u16(text, 0x0201);
  util::put_u32(text, 0x06050403u);
  util::put_u64(text, 0x0e0d0c0b0a090807ull);
  util::put_u16(wire, 0x0201);
  util::put_u32(wire, 0x06050403u);
  util::put_u64(wire, 0x0e0d0c0b0a090807ull);
  ASSERT_EQ(text.size(), 14u);
  ASSERT_EQ(wire.size(), 14u);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(text[i]), i + 1);
    EXPECT_EQ(wire[i], i + 1);
  }
  EXPECT_EQ(util::get_u16(wire.data()), 0x0201u);
  EXPECT_EQ(util::get_u32(wire.data() + 2), 0x06050403u);
  EXPECT_EQ(util::get_u64(bytes_of(text) + 6), 0x0e0d0c0b0a090807ull);
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{0xfedcba98},
                                std::numeric_limits<std::uint64_t>::max()}) {
    std::string t;
    std::vector<std::uint8_t> w;
    util::put_u16(t, static_cast<std::uint16_t>(v));
    util::put_u32(t, static_cast<std::uint32_t>(v));
    util::put_u64(t, v);
    util::put_u16(w, static_cast<std::uint16_t>(v));
    util::put_u32(w, static_cast<std::uint32_t>(v));
    util::put_u64(w, v);
    EXPECT_EQ(util::get_u16(bytes_of(t)), static_cast<std::uint16_t>(v));
    EXPECT_EQ(util::get_u32(w.data() + 2), static_cast<std::uint32_t>(v));
    EXPECT_EQ(util::get_u64(bytes_of(t) + 6), v);
    EXPECT_EQ(util::get_u64(w.data() + 6), v);
  }
}

TEST(StoreFormat, TruncatedVarintThrows) {
  std::string buffer;
  buffer.push_back(static_cast<char>(0x80));  // continuation with no tail
  ByteReader cursor(bytes_of(buffer), buffer.size());
  EXPECT_THROW((void)cursor.varint(), std::runtime_error);

  // 11 bytes: ten continuation bytes, then a terminator.  With >= 10 bytes
  // left it reaches the unchecked path, alone and with a tail behind it.
  // The checked path only runs with < 10 bytes left, where the same bytes
  // are a truncated varint.
  const std::string over_long = std::string(10, '\xff') + '\x01';
  for (const std::string& stream :
       {over_long, over_long + std::string(16, '\x00'),
        over_long.substr(0, 9)}) {
    ByteReader reader(bytes_of(stream), stream.size());
    EXPECT_THROW((void)reader.varint(), std::runtime_error) << stream.size();
  }

  // Every strict prefix of a valid u64 + varint stream is truncated.
  for (const std::uint64_t v :
       {std::uint64_t{300}, std::uint64_t{1} << 56,
        std::numeric_limits<std::uint64_t>::max()}) {
    std::string stream;
    util::put_u64(stream, 0x0123456789abcdefull);
    util::put_varint(stream, v);
    ByteReader whole(bytes_of(stream), stream.size());
    EXPECT_EQ(whole.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(whole.varint(), v);
    EXPECT_TRUE(whole.done());
    for (std::size_t size = 0; size < stream.size(); ++size) {
      ByteReader prefix(bytes_of(stream), size);
      EXPECT_THROW(
          {
            (void)prefix.u64();
            (void)prefix.varint();
          },
          std::runtime_error)
          << "prefix " << size << " of " << stream.size();
    }
  }
}

/// Every varint through varint(), one at a time: the column decoder's
/// reference.  Returns the values and whether the stream ended exactly.
std::vector<std::uint64_t> one_by_one(const std::string& stream, std::size_t n) {
  ByteReader cursor(bytes_of(stream), stream.size());
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < n; ++i) values.push_back(cursor.varint());
  return values;
}

TEST(StoreFormat, VarintColumnsMatchOneAtATimeDecode) {
  // Columns of mixed lengths 1..10 bytes, from a few varints (the checked
  // tail only) to thousands (64-byte terminator masks, varints straddling
  // each mask window, 9- and 10-byte varints inside a window).
  std::mt19937_64 engine(23);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{30}, std::size_t{100}, std::size_t{5000}}) {
    for (const int widest : {1, 2, 5, 8, 10}) {
      std::string stream;
      std::vector<std::uint64_t> written;
      for (std::size_t i = 0; i < n; ++i) {
        const int bits =
            static_cast<int>(engine() % static_cast<std::uint64_t>(7 * widest)) + 1;
        const std::uint64_t value =
            bits >= 64 ? engine() : engine() & ((std::uint64_t{1} << bits) - 1);
        written.push_back(value);
        util::put_varint(stream, value);
      }
      const std::size_t column_end = stream.size();
      stream.append(n % 3 == 0 ? 0 : 80, '\x05');  // a tail behind the column
      ByteReader cursor(bytes_of(stream), stream.size());
      std::vector<std::uint64_t> decoded(n, 0);
      std::size_t calls = 0;
      cursor.varints(n, [&](std::size_t i, std::uint64_t value) {
        EXPECT_EQ(i, calls++);
        decoded[i] = value;
      });
      EXPECT_EQ(calls, n);
      EXPECT_EQ(decoded, written) << "n " << n << " widest " << widest;
      EXPECT_EQ(decoded, one_by_one(stream, n));
      EXPECT_EQ(static_cast<std::size_t>(cursor.position() - bytes_of(stream)),
                column_end);
    }
  }
}

TEST(StoreFormat, VarintColumnsRejectWhatVarintRejects) {
  const auto decode = [](const std::string& stream, std::size_t n) {
    ByteReader cursor(bytes_of(stream), stream.size());
    cursor.varints(n, [](std::size_t, std::uint64_t) {});
  };
  // An 11-byte varint after 20 good ones, deep inside a mask window.
  std::string over_long(20, '\x01');
  over_long += std::string(10, '\xff') + '\x01' + std::string(100, '\x01');
  EXPECT_THROW(decode(over_long, 40), util::DecodeError);
  // A run of continuation bytes longer than a whole window.
  const std::string endless = std::string(5, '\x01') + std::string(200, '\x80');
  EXPECT_THROW(decode(endless, 10), util::DecodeError);
  // More varints asked for than the stream holds.
  const std::string short_column(90, '\x02');
  EXPECT_THROW(decode(short_column, 91), util::DecodeError);
  EXPECT_NO_THROW(decode(short_column, 90));
}

class PairRoundTrip : public StoreTest,
                      public ::testing::WithParamInterface<std::size_t> {};

TEST_P(PairRoundTrip, PairsSurviveByteIdentically) {
  const auto pairs = sample_pairs(GetParam());
  // Small chunks so multi-chunk paths (and the exact-boundary case when the
  // count is a multiple of 64) are exercised.
  write_pairs_file(path("aar_s.aartr"), pairs, 64);
  const Reader reader(path("aar_s.aartr"));
  EXPECT_EQ(reader.kind(), StreamKind::pairs);
  EXPECT_EQ(reader.num_records(), pairs.size());
  const auto loaded = reader.read_all_pairs();
  ASSERT_EQ(loaded.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(loaded[i], pairs[i]);  // double time bits included: lossless
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PairRoundTrip,
                         ::testing::Values(0, 1, 5, 63, 64, 65, 1'000));

TEST_F(StoreTest, ChunkSeekMatchesSequentialSlices) {
  const auto pairs = sample_pairs(500);
  write_pairs_file(path("aar_s.aartr"), pairs, 128);
  const Reader reader(path("aar_s.aartr"));
  ASSERT_EQ(reader.num_chunks(), 4u);  // 128+128+128+116
  EXPECT_EQ(reader.chunk_records(3), 116u);
  // Random-access the third chunk without touching the first two.
  const auto chunk2 = reader.read_pairs_chunk(2);
  ASSERT_EQ(chunk2.size(), 128u);
  for (std::size_t i = 0; i < chunk2.size(); ++i) {
    EXPECT_EQ(chunk2[i], pairs[256 + i]);
  }
  EXPECT_THROW((void)reader.read_pairs_chunk(4), std::runtime_error);
}

TEST_F(StoreTest, QueriesAndRepliesRoundTripAndMaterialize) {
  trace::TraceConfig config;
  config.seed = 11;
  config.block_size = 400;
  trace::TraceGenerator generator(config);
  trace::Database db;
  db.import(generator, 800);

  write_queries_file(path("aar_s.aartr"), db.queries(), 100);
  {
    const Reader reader(path("aar_s.aartr"));
    EXPECT_EQ(reader.kind(), StreamKind::queries);
    trace::Database loaded;
    reader.materialize(loaded);
    ASSERT_EQ(loaded.queries().size(), db.queries().size());
    for (std::size_t i = 0; i < db.queries().size(); ++i) {
      EXPECT_EQ(loaded.queries()[i].time, db.queries()[i].time);
      EXPECT_EQ(loaded.queries()[i].guid, db.queries()[i].guid);
      EXPECT_EQ(loaded.queries()[i].source_host, db.queries()[i].source_host);
      EXPECT_EQ(loaded.queries()[i].query, db.queries()[i].query);
    }
    // Typed accessors enforce the stream kind.
    EXPECT_THROW((void)reader.read_pairs_chunk(0), std::runtime_error);
    EXPECT_THROW((void)reader.read_replies_chunk(0), std::runtime_error);
  }

  write_replies_file(path("aar_s2.aartr"), db.replies(), 100);
  const Reader reader(path("aar_s2.aartr"));
  EXPECT_EQ(reader.kind(), StreamKind::replies);
  trace::Database loaded;
  reader.materialize(loaded);
  ASSERT_EQ(loaded.replies().size(), db.replies().size());
  for (std::size_t i = 0; i < db.replies().size(); ++i) {
    EXPECT_EQ(loaded.replies()[i].time, db.replies()[i].time);
    EXPECT_EQ(loaded.replies()[i].guid, db.replies()[i].guid);
    EXPECT_EQ(loaded.replies()[i].replying_neighbor,
              db.replies()[i].replying_neighbor);
    EXPECT_EQ(loaded.replies()[i].serving_host, db.replies()[i].serving_host);
    EXPECT_EQ(loaded.replies()[i].file, db.replies()[i].file);
  }
}

TEST_F(StoreTest, CsvToAartrToDatabaseIsByteIdentical) {
  // The acceptance-criteria pipeline: CSV -> aartr -> Database equals the
  // original pair table exactly.
  trace::TraceConfig config;
  config.seed = 13;
  config.block_size = 500;
  trace::TraceGenerator generator(config);
  trace::Database db;
  db.import(generator, 1'500);
  db.join();

  trace::write_pairs_csv(path("aar_s.csv"), db);
  const auto from_csv = trace::read_pairs_csv(path("aar_s.csv"));
  write_pairs_file(path("aar_s.aartr"), from_csv, 256);

  trace::Database materialized;
  Reader(path("aar_s.aartr")).materialize(materialized);
  ASSERT_EQ(materialized.pairs().size(), db.pairs().size());
  for (std::size_t i = 0; i < db.pairs().size(); ++i) {
    EXPECT_EQ(materialized.pairs()[i], db.pairs()[i]);
  }
  // set_pairs marks the table joined, so the block API works directly.
  EXPECT_EQ(materialized.num_blocks(500), db.pairs().size() / 500);
}

TEST_F(StoreTest, MissingFileThrows) {
  EXPECT_THROW(Reader("/nonexistent/trace.aartr"), std::runtime_error);
}

TEST_F(StoreTest, NonAartrFileThrows) {
  std::ofstream out(path("aar_s.aartr"), std::ios::binary);
  out << "time,guid,source_host,replying_neighbor,query\n1,2,3,4,5\n";
  out.close();
  EXPECT_THROW(Reader(path("aar_s.aartr")), std::runtime_error);
}

TEST_F(StoreTest, TruncatedFileThrows) {
  const auto pairs = sample_pairs(300);
  write_pairs_file(path("aar_s.aartr"), pairs, 128);
  const auto full_size = std::filesystem::file_size(path("aar_s.aartr"));
  // Chop anywhere — trailer gone, footer unreachable — and opening fails.
  for (const std::uintmax_t keep :
       {full_size - 1, full_size / 2, std::uintmax_t{40}, std::uintmax_t{10}}) {
    std::filesystem::resize_file(path("aar_s.aartr"), keep);
    EXPECT_THROW(Reader(path("aar_s.aartr")), std::runtime_error)
        << "file truncated to " << keep << " bytes was accepted";
  }
}

TEST_F(StoreTest, CorruptChunkPayloadThrowsOnDecode) {
  const auto pairs = sample_pairs(300);
  write_pairs_file(path("aar_s.aartr"), pairs, 128);
  // Flip one byte inside the second chunk's payload.  Header, footer and
  // trailer stay intact, so open succeeds but the chunk decode must fail.
  Reader probe(path("aar_s.aartr"));
  ASSERT_GE(probe.num_chunks(), 2u);
  std::fstream file(path("aar_s.aartr"),
                    std::ios::binary | std::ios::in | std::ios::out);
  const auto corrupt_at = static_cast<std::streamoff>(kHeaderSize) + 600;
  file.seekg(corrupt_at);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(corrupt_at);
  file.write(&byte, 1);
  file.close();

  const Reader reader(path("aar_s.aartr"));
  EXPECT_THROW((void)reader.read_all_pairs(), std::runtime_error);
}

TEST_F(StoreTest, CorruptHeaderCrcThrows) {
  write_pairs_file(path("aar_s.aartr"), sample_pairs(50), 64);
  std::fstream file(path("aar_s.aartr"),
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(16);  // record-count field: CRC-covered
  const char byte = 0x5a;
  file.write(&byte, 1);
  file.close();
  EXPECT_THROW(Reader(path("aar_s.aartr")), std::runtime_error);
}

TEST_F(StoreTest, WriterRejectsKindMismatch) {
  Writer writer(path("aar_s.aartr"), StreamKind::pairs);
  EXPECT_THROW(writer.add(QueryRecord{}), std::logic_error);
  EXPECT_THROW(writer.add(ReplyRecord{}), std::logic_error);
  writer.add(QueryReplyPair{});
  writer.close();
}

TEST_F(StoreTest, SmallerThanCsv) {
  trace::TraceConfig config;
  config.seed = 3;
  config.block_size = 1'000;
  trace::TraceGenerator generator(config);
  trace::Database db;
  db.import(generator, 20'000);
  db.join();
  trace::write_pairs_csv(path("aar_s.csv"), db);
  write_pairs_file(path("aar_s.aartr"), db.pairs());
  const auto csv_size = std::filesystem::file_size(path("aar_s.csv"));
  const auto aartr_size = std::filesystem::file_size(path("aar_s.aartr"));
  EXPECT_LE(aartr_size * 2, csv_size)
      << "aartr " << aartr_size << " B vs CSV " << csv_size << " B";
}

TEST_F(StoreTest, BlockSourceYieldsWholeBlocksThenEmpty) {
  // Whole blocks come out as spans into a decoded chunk when they fit and
  // are stitched when they straddle chunk boundaries; either way the
  // sequence is exactly SpanBlockSource's, partial tail dropped.
  struct Case {
    std::size_t pairs;
    std::uint32_t chunk;
    std::size_t block;
  };
  for (const Case c : {
           Case{1'050, 500, 100},  // block < chunk, never straddles; tail 50
           Case{1'000, 300, 250},  // block < chunk, every other one straddles
           Case{1'000, 300, 300},  // block == chunk; tail 100
           Case{1'000, 128, 300},  // block spans three chunks; tail 100
           Case{1'000, 300, 350},  // tail 300 dropped mid-stitch
       }) {
    const auto pairs = sample_pairs(c.pairs);
    write_pairs_file(path("aar_s.aartr"), pairs, c.chunk);
    const Reader reader(path("aar_s.aartr"));
    StoreBlockSource source(reader);
    trace::SpanBlockSource expect(pairs);
    std::size_t blocks = 0;
    for (;;) {
      const auto want = expect.next_block(c.block);
      const auto got = source.next_block(c.block);
      ASSERT_EQ(got.size(), want.size())
          << "chunk " << c.chunk << " block " << c.block << " #" << blocks;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "chunk " << c.chunk << " block " << c.block << " #" << blocks;
      }
      if (want.empty()) break;
      ++blocks;
    }
    EXPECT_EQ(blocks, c.pairs / c.block);
    EXPECT_TRUE(source.next_block(c.block).empty());  // stays exhausted
  }
}

TEST_F(StoreTest, BlockSourcePropagatesDecodeErrors) {
  write_pairs_file(path("aar_s.aartr"), sample_pairs(400), 128);
  std::fstream file(path("aar_s.aartr"),
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(static_cast<std::streamoff>(kHeaderSize) + 20);
  const char byte = 0x13;
  file.write(&byte, 1);
  file.close();
  const auto reader = std::make_shared<const Reader>(path("aar_s.aartr"));
  const auto source = std::make_shared<StoreBlockSource>(*reader);
  EXPECT_THROW((void)source->next_block(200), std::runtime_error);
  // Every later call rethrows the same error rather than waiting for a
  // chunk that is never scheduled.  The call runs on a thread that shares
  // ownership of the source, so a hang fails the bounded wait (and the
  // blocked thread is left behind) instead of stalling the suite.
  std::packaged_task<void()> again(
      [reader, source] { (void)source->next_block(200); });
  std::future<void> done = again.get_future();
  std::thread caller(std::move(again));
  const bool returned =
      done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (returned) {
    caller.join();
  } else {
    caller.detach();
  }
  ASSERT_TRUE(returned) << "second next_block after a decode error hung";
  EXPECT_THROW(done.get(), std::runtime_error);
}

TEST_F(StoreTest, BlockSourceRejectsNonPairStreams) {
  trace::Database db;
  db.add_query(QueryRecord{.time = 1.0, .guid = 1, .source_host = 2, .query = 3});
  write_queries_file(path("aar_s.aartr"), db.queries());
  const Reader reader(path("aar_s.aartr"));
  EXPECT_THROW(StoreBlockSource{reader}, std::runtime_error);
}

}  // namespace
}  // namespace aar::store
