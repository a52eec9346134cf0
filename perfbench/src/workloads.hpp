#pragma once
// The five workloads (see perfbench/README.md for why each exists).  Each
// untraced run fills every end-to-end metric of BENCHMARK.json; each traced
// run fills every per-layer metric.

#include "common.hpp"

namespace perfbench {

/// relay-small / relay-churn-persist: open-loop node relay.
void run_relay(const RunArgs& args, Outcome& out);
/// trace-replay: the paper's 365+1-block experiment streamed from aartr.
void run_replay(const RunArgs& args, Outcome& out);
/// sim-100k / sim-20k: the overlay simulator at `nodes` peers.
void run_scale(const RunArgs& args, std::size_t nodes, Outcome& out);

/// Traced run, node layers (gnutella, node, core decide, mining hub, lsm):
/// a live daemon at the reference rate of `workload` (a node workload),
/// then isolated calls fed with the frames and pairs it carried.
void trace_node_layers(const RunArgs& args, const std::string& workload,
                       Tracer& tracer, Outcome& out);
/// Traced run, offline layers (trace, store, core evaluate, mining, par) on
/// a trace of `blocks` + 1 blocks of 10k pairs.
void trace_offline_layers(const RunArgs& args, std::size_t blocks,
                          Tracer& tracer, Outcome& out);
/// Traced run, sim layers on a `nodes`-peer overlay.
void trace_sim_layers(const RunArgs& args, std::size_t nodes, Tracer& tracer,
                      Outcome& out);

}  // namespace perfbench
