#pragma once
// In-memory relational pipeline over trace records.
//
// Replaces the paper's MySQL database (Section IV-A): import the raw query
// and reply tables, remove queries whose GUID was already used (buggy clients
// re-used "globally unique" identifiers; the paper keeps only the first use),
// join queries with replies on GUID to produce the query–reply pair table,
// and slice that table into fixed-size blocks for the simulator.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/generator.hpp"
#include "trace/record.hpp"

namespace aar::trace {

/// Summary the paper reports for its capture (Section IV-A).
struct TraceSummary {
  std::uint64_t raw_queries = 0;        ///< query messages imported
  std::uint64_t duplicate_guids = 0;    ///< query rows dropped by dedup
  std::uint64_t queries = 0;            ///< rows kept after dedup
  std::uint64_t replies = 0;            ///< reply messages imported
  std::uint64_t orphan_replies = 0;     ///< replies whose GUID matched no query
  std::uint64_t pairs = 0;              ///< rows of the join
  std::uint64_t unique_source_hosts = 0;
  std::uint64_t unique_reply_neighbors = 0;

  [[nodiscard]] std::string to_string() const;
};

class Database {
 public:
  Database() = default;

  /// Append raw records (kept in arrival order).
  void add_query(const QueryRecord& query);
  void add_reply(const ReplyRecord& reply);
  void add_event(const TraceEvent& event);

  /// Drive `generator` until `pair_target` answered pairs have been imported.
  void import(TraceGenerator& generator, std::size_t pair_target);

  /// Remove query rows whose GUID already appeared (first use wins).
  /// Idempotent.  Returns the number of rows removed by this call.
  std::uint64_t deduplicate_queries();

  /// Join queries with replies on GUID, materializing the pair table ordered
  /// by reply time.  Runs deduplicate_queries() first if it has not run.
  /// Returns the number of pairs produced.
  std::uint64_t join();

  /// Install an externally joined pair table (e.g. a pairs-kind aartr file),
  /// replacing any pipeline state.  The table is taken as already
  /// deduplicated and reply-time ordered; join() becomes a no-op.
  void set_pairs(std::vector<QueryReplyPair> pairs);

  [[nodiscard]] std::span<const QueryRecord> queries() const noexcept {
    return queries_;
  }
  [[nodiscard]] std::span<const ReplyRecord> replies() const noexcept {
    return replies_;
  }
  [[nodiscard]] std::span<const QueryReplyPair> pairs() const noexcept {
    return pairs_;
  }

  /// Number of whole blocks of `block_size` pairs available (join() first).
  [[nodiscard]] std::size_t num_blocks(std::size_t block_size) const noexcept;

  /// The i-th whole block of pairs.
  [[nodiscard]] std::span<const QueryReplyPair> block(std::size_t index,
                                                      std::size_t block_size) const;

  [[nodiscard]] TraceSummary summary() const;

 private:
  std::vector<QueryRecord> queries_;
  std::vector<ReplyRecord> replies_;
  std::vector<QueryReplyPair> pairs_;
  std::uint64_t raw_query_count_ = 0;
  std::uint64_t duplicate_guid_count_ = 0;
  std::uint64_t orphan_reply_count_ = 0;
  bool deduplicated_ = false;
  bool joined_ = false;
};

}  // namespace aar::trace
