#include "trace/database.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_set>

#include "util/flat_map.hpp"

namespace aar::trace {

std::string TraceSummary::to_string() const {
  std::ostringstream os;
  os << "queries(raw)=" << raw_queries << " duplicates=" << duplicate_guids
     << " queries=" << queries << " replies=" << replies
     << " orphan_replies=" << orphan_replies << " pairs=" << pairs
     << " source_hosts=" << unique_source_hosts
     << " reply_neighbors=" << unique_reply_neighbors;
  return os.str();
}

void Database::add_query(const QueryRecord& query) {
  queries_.push_back(query);
  ++raw_query_count_;
  deduplicated_ = false;
  joined_ = false;
}

void Database::add_reply(const ReplyRecord& reply) {
  replies_.push_back(reply);
  joined_ = false;
}

void Database::add_event(const TraceEvent& event) {
  add_query(event.query);
  for (std::uint32_t i = 0; i < event.reply_count; ++i) {
    add_reply(event.replies[i]);
  }
}

void Database::import(TraceGenerator& generator, std::size_t pair_target) {
  std::size_t pairs_imported = 0;
  while (pairs_imported < pair_target) {
    const TraceEvent event = generator.next();
    add_event(event);
    pairs_imported += event.reply_count;
  }
}

std::uint64_t Database::deduplicate_queries() {
  if (deduplicated_) return 0;
  // Flat tables, here and in join(): the paper's trace has 11.8M raw
  // queries, and a node per GUID would cost most of `aar_sim generate`.
  util::FlatCountMap<Guid, std::uint8_t> seen;
  seen.reserve(queries_.size());
  std::uint64_t removed = 0;
  auto keep = queries_.begin();
  for (const QueryRecord& query : queries_) {
    std::uint8_t& used = seen.find_or_insert(query.guid);
    if (used == 0) {
      used = 1;  // first use wins
      *keep++ = query;
    } else {
      ++removed;
    }
  }
  queries_.erase(keep, queries_.end());
  duplicate_guid_count_ += removed;
  deduplicated_ = true;
  return removed;
}

std::uint64_t Database::join() {
  deduplicate_queries();
  if (joined_) return pairs_.size();

  struct QueryInfo {
    HostId source = 0;
    QueryKey query = 0;
  };
  // GUIDs are unique after deduplication.
  util::FlatCountMap<Guid, QueryInfo> source_of;
  source_of.reserve(queries_.size());
  for (const QueryRecord& query : queries_) {
    source_of.find_or_insert(query.guid) = {query.source_host, query.query};
  }

  pairs_.clear();
  pairs_.reserve(replies_.size());
  orphan_reply_count_ = 0;
  for (const ReplyRecord& reply : replies_) {
    const QueryInfo* const info = source_of.find(reply.guid);
    if (info == nullptr) {
      // A reply to a query we never recorded (in the real capture: replies
      // routed through us for queries that predate the capture, or whose
      // query row fell to dedup).  Dropped, but accounted for.
      ++orphan_reply_count_;
      continue;
    }
    pairs_.push_back(QueryReplyPair{
        .time = reply.time,
        .guid = reply.guid,
        .source_host = info->source,
        .replying_neighbor = reply.replying_neighbor,
        .query = info->query,
    });
  }
  std::sort(pairs_.begin(), pairs_.end(),
            [](const QueryReplyPair& a, const QueryReplyPair& b) {
              return a.time < b.time;
            });
  joined_ = true;
  return pairs_.size();
}

void Database::set_pairs(std::vector<QueryReplyPair> pairs) {
  queries_.clear();
  replies_.clear();
  pairs_ = std::move(pairs);
  raw_query_count_ = 0;
  duplicate_guid_count_ = 0;
  orphan_reply_count_ = 0;
  deduplicated_ = true;
  joined_ = true;
}

std::size_t Database::num_blocks(std::size_t block_size) const noexcept {
  assert(block_size > 0);
  return pairs_.size() / block_size;
}

std::span<const QueryReplyPair> Database::block(std::size_t index,
                                                std::size_t block_size) const {
  assert(index < num_blocks(block_size));
  return std::span<const QueryReplyPair>(pairs_).subspan(index * block_size,
                                                         block_size);
}

TraceSummary Database::summary() const {
  TraceSummary s;
  s.raw_queries = raw_query_count_;
  s.duplicate_guids = duplicate_guid_count_;
  s.queries = queries_.size();
  s.replies = replies_.size();
  s.orphan_replies = orphan_reply_count_;
  s.pairs = pairs_.size();
  std::unordered_set<HostId> sources;
  std::unordered_set<HostId> neighbors;
  for (const QueryRecord& query : queries_) sources.insert(query.source_host);
  for (const ReplyRecord& reply : replies_) neighbors.insert(reply.replying_neighbor);
  s.unique_source_hosts = sources.size();
  s.unique_reply_neighbors = neighbors.size();
  return s;
}

}  // namespace aar::trace
