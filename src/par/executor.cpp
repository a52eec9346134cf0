#include "par/executor.hpp"

#include <algorithm>
#include <cstddef>

#include "obs/registry.hpp"

namespace aar::par {

namespace {

struct ParMetrics {
  obs::Counter& blocks_sharded;
  obs::Counter& pairs_sharded;
  obs::Histogram& shard_imbalance;
  obs::Timer& merge;

  static ParMetrics& get() {
    static ParMetrics metrics{
        obs::Registry::global().counter("par.blocks_sharded"),
        obs::Registry::global().counter("par.pairs_sharded"),
        // max/mean shard size per partition; 1.0 = perfectly even.
        obs::Registry::global().histogram("par.shard_imbalance", 1.0, 4.0, 24),
        obs::Registry::global().timer("par.merge"),
    };
    return metrics;
  }
};

}  // namespace

ShardExecutor::ShardExecutor(std::size_t threads, std::size_t shards)
    : shard_pairs_(std::max<std::size_t>(1, shards)),
      shard_states_(shard_pairs_.size()),
      shard_counts_(shard_pairs_.size()),
      shard_measures_(shard_pairs_.size()),
      pool_(threads) {}

void ShardExecutor::partition(core::Block block) {
  const std::size_t shards = shard_pairs_.size();
  for (std::vector<trace::QueryReplyPair>& shard : shard_pairs_) {
    shard.clear();  // keeps capacity: steady state re-partitions in place
  }
  for (const trace::QueryReplyPair& pair : block) {
    shard_pairs_[shard_of(pair.guid, shards)].push_back(pair);
  }

  ParMetrics& metrics = ParMetrics::get();
  metrics.blocks_sharded.add(1);
  metrics.pairs_sharded.add(block.size());
  if (!block.empty()) {
    std::size_t largest = 0;
    for (const std::vector<trace::QueryReplyPair>& shard : shard_pairs_) {
      largest = std::max(largest, shard.size());
    }
    const double mean = static_cast<double>(block.size()) /
                        static_cast<double>(shards);
    metrics.shard_imbalance.observe(static_cast<double>(largest) / mean);
  }
}

core::BlockMeasures ShardExecutor::evaluate(const core::RuleSet& rules,
                                            core::Block block) {
  partition(block);
  for (std::size_t s = 0; s < shard_pairs_.size(); ++s) {
    pool_.submit([this, s, &rules] {
      shard_measures_[s] =
          core::evaluate(rules, shard_pairs_[s], shard_states_[s]);
    });
  }
  pool_.wait();

  // A GUID lives wholly in one shard, so per-shard (N, n, s) sum exactly.
  core::BlockMeasures total;
  for (const core::BlockMeasures& shard : shard_measures_) {
    total.total_queries += shard.total_queries;
    total.covered += shard.covered;
    total.successful += shard.successful;
  }
  return total;
}

void ShardExecutor::mine(mining::IncrementalRuleMiner& miner,
                         core::Block block) {
  partition(block);
  for (std::size_t s = 0; s < shard_pairs_.size(); ++s) {
    pool_.submit([this, s] {
      shard_counts_[s].clear();
      shard_counts_[s].count(shard_pairs_[s]);
    });
  }
  pool_.wait();

  std::vector<mining::ShardCounts*> shards;
  shards.reserve(shard_counts_.size());
  for (mining::ShardCounts& shard : shard_counts_) shards.push_back(&shard);

  const obs::Timer::Scope scope = ParMetrics::get().merge.measure();
  miner.replace_window(block, shards);
}

}  // namespace aar::par
