#pragma once
// Overlay topology generators.
//
// Gnutella-era crawls found power-law-ish degree distributions with a dense
// core; we provide Barabási–Albert (the default for the traffic benches) and
// Erdős–Rényi graphs.  Every generator returns a *connected* graph: stray
// components are stitched to the giant component with random edges (a
// disconnected overlay cannot be searched).

#include "overlay/graph.hpp"
#include "util/rng.hpp"

namespace aar::overlay {

/// G(n, m): `edges` distinct random edges, then connectivity fix-up.
/// Throws std::invalid_argument unless nodes >= 2.
[[nodiscard]] Graph make_erdos_renyi(std::size_t nodes, std::size_t edges,
                                     util::Rng& rng);

/// Barabási–Albert preferential attachment: each new node attaches to
/// `attach` existing nodes with probability proportional to degree.
/// The first attach+1 nodes form a clique seed.  Throws
/// std::invalid_argument unless 1 <= attach < nodes.
[[nodiscard]] Graph make_barabasi_albert(std::size_t nodes, std::size_t attach,
                                         util::Rng& rng);

/// Ensure connectivity by wiring each non-giant component to a random node
/// of the giant component.  Returns the number of edges added.
std::size_t connect_components(Graph& graph, util::Rng& rng);

}  // namespace aar::overlay
