#include "overlay/graph.hpp"
#include "overlay/topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace aar::overlay {
namespace {

TEST(Graph, AddEdgeRejectsSelfLoopsAndDuplicates) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate (undirected)
  EXPECT_FALSE(g.add_edge(2, 2));  // self-loop
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, HasEdgeIsSymmetric) {
  Graph g(4);
  g.add_edge(1, 3);
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_TRUE(g.has_edge(3, 1));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(Graph, NeighborsReflectEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const auto neighbors = g.neighbors(0);
  const std::set<NodeId> set(neighbors.begin(), neighbors.end());
  EXPECT_EQ(set, (std::set<NodeId>{1, 2}));
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, EmptyAndSingletonAreConnected) {
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(Graph, BfsDistancesOnALine) {
  Graph g(5);
  for (NodeId i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  const auto d = g.bfs_distances(0);
  for (NodeId i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
  EXPECT_EQ(g.eccentricity(0), 4u);
  EXPECT_EQ(g.eccentricity(2), 2u);
}

TEST(Graph, BfsMarksUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto d = g.bfs_distances(0);
  EXPECT_EQ(d[2], Graph::kUnreachable);
  EXPECT_EQ(g.eccentricity(0), 1u);  // ignores the unreachable node
}

TEST(Graph, AverageDegree) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.0);
  EXPECT_DOUBLE_EQ(Graph(0).average_degree(), 0.0);
}

// --- topology generators -----------------------------------------------------

TEST(Topology, ConnectComponentsStitchesEverything) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  util::Rng rng(1);
  const std::size_t added = connect_components(g, rng);
  EXPECT_GE(added, 2u);  // at least: {2,3} component + 4 + 5
  EXPECT_TRUE(g.is_connected());
}

TEST(Topology, ErdosRenyiShape) {
  util::Rng rng(2);
  const Graph g = make_erdos_renyi(200, 400, rng);
  EXPECT_EQ(g.num_nodes(), 200u);
  EXPECT_GE(g.num_edges(), 400u);  // fix-up can add a few
  EXPECT_TRUE(g.is_connected());
}

TEST(Topology, ErdosRenyiCapsAtCompleteGraph) {
  util::Rng rng(3);
  const Graph g = make_erdos_renyi(5, 1'000, rng);
  EXPECT_EQ(g.num_edges(), 10u);  // C(5,2)
}

TEST(Topology, BarabasiAlbertShape) {
  util::Rng rng(4);
  const Graph g = make_barabasi_albert(500, 3, rng);
  EXPECT_EQ(g.num_nodes(), 500u);
  EXPECT_TRUE(g.is_connected());
  // Each newcomer adds ~3 edges plus the seed clique.
  EXPECT_GE(g.num_edges(), 3 * (500 - 4));
  EXPECT_LE(g.num_edges(), 3 * 500 + 6);
}

TEST(Topology, BarabasiAlbertIsHubby) {
  util::Rng rng(5);
  const Graph g = make_barabasi_albert(1'000, 3, rng);
  std::size_t max_degree = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    max_degree = std::max(max_degree, g.degree(n));
  }
  // Preferential attachment produces hubs far above the mean (~6).
  EXPECT_GT(max_degree, 30u);
}

TEST(Topology, GeneratorsRejectImpossibleShapes) {
  // A clique seed of attach + 1 nodes must fit in the graph; these used to
  // be assert-only, so a Release build wrote past the node arrays.
  util::Rng rng(6);
  EXPECT_THROW((void)make_barabasi_albert(3, 5, rng), std::invalid_argument);
  EXPECT_THROW((void)make_barabasi_albert(3, 3, rng), std::invalid_argument);
  EXPECT_THROW((void)make_barabasi_albert(10, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)make_erdos_renyi(1, 4, rng), std::invalid_argument);
  EXPECT_EQ(make_barabasi_albert(3, 2, rng).num_edges(), 3u);  // the seed
}

// Property sweep: every generator yields a connected graph at various sizes.
class TopologySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopologySweep, AllGeneratorsConnected) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  EXPECT_TRUE(make_erdos_renyi(n, 2 * n, rng).is_connected());
  EXPECT_TRUE(make_barabasi_albert(n, 2, rng).is_connected());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologySweep,
                         ::testing::Values(10, 50, 100, 500));

}  // namespace
}  // namespace aar::overlay
