// Fault-matrix sweep: {drop 0, 0.05, 0.2} x {crashed 0%, 10%}.  Each cell
// is one named ctest case that runs the same scenario over several seeds
// and checks that injected faults never *improve* search success beyond a
// seed-averaged tolerance, and that degradation grows monotonically along
// the drop axis.  Flooding policy, so the measurement isolates the fault
// layer from rule-learning dynamics.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "sim/experiment.hpp"

namespace aar::sim {
namespace {

constexpr std::uint64_t kSeeds[] = {101, 202, 303};
constexpr double kTolerance = 0.03;  // seed-averaged noise allowance

struct Cell {
  double drop;
  std::size_t crash_den;  ///< 0 = no crashes, N = every Nth peer crashed
};

int drop_pct(const Cell& cell) {
  return static_cast<int>(cell.drop * 100.0 + 0.5);
}

int crash_pct(const Cell& cell) {
  return cell.crash_den == 0
             ? 0
             : static_cast<int>(100.0 / static_cast<double>(cell.crash_den) +
                                0.5);
}

// Labels the parameter in test listings instead of dumping its bytes.
void PrintTo(const Cell& cell, std::ostream* os) {
  *os << "loss " << drop_pct(cell) << "% crash " << crash_pct(cell) << '%';
}

fault::Scenario cell_scenario(const Cell& cell) {
  fault::Scenario scenario;
  scenario.nodes = 150;
  scenario.attach = 3;
  scenario.warmup = 80;
  scenario.queries = 200;
  scenario.epochs = 2;
  scenario.policy = "flooding";
  scenario.ttl = 6;
  scenario.timeout = 48;
  scenario.retries = 2;
  scenario.plan.drop = cell.drop;
  if (cell.crash_den != 0) {
    for (std::size_t n = 0; n < scenario.nodes; n += cell.crash_den) {
      scenario.plan.peers.push_back(
          {static_cast<fault::NodeId>(n), fault::PeerState::crashed});
    }
  }
  return scenario;
}

double seed_averaged_success(const Cell& cell) {
  double total = 0.0;
  for (const std::uint64_t seed : kSeeds) {
    const overlay::FaultRunResult run =
        run_fault_scenario(cell_scenario(cell), seed);
    total += static_cast<double>(run.hits) / static_cast<double>(run.searches);
  }
  return total / static_cast<double>(std::size(kSeeds));
}

/// The zero-fault baseline, computed once and shared across cells.
double baseline_success() {
  static const double baseline = seed_averaged_success({0.0, 0});
  return baseline;
}

class FaultMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(FaultMatrix, FaultsNeverBeatTheLosslessBaseline) {
  const Cell cell = GetParam();
  const double success = seed_averaged_success(cell);
  EXPECT_LE(success, baseline_success() + kTolerance)
      << "drop=" << cell.drop << " crashed=1/" << cell.crash_den
      << " outperformed the lossless overlay";
  // Sanity floor: the retry ladder must keep the overlay useful even in the
  // harshest cell (20% loss, 10% crashed).
  EXPECT_GT(success, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FaultMatrix,
    ::testing::Values(Cell{0.0, 0}, Cell{0.0, 10}, Cell{0.05, 0},
                      Cell{0.05, 10}, Cell{0.2, 0}, Cell{0.2, 10}),
    [](const ::testing::TestParamInfo<Cell>& cell) {
      return "drop" + std::to_string(drop_pct(cell.param)) + "_crash" +
             std::to_string(crash_pct(cell.param));
    });

TEST(FaultMatrixShape, DegradationMonotonicAlongDropAxis) {
  // Seed-averaged success must not rise as the drop rate climbs (within
  // tolerance): 0 >= 0.05 >= 0.2 along both crash rows.
  for (const std::size_t crash_den : {std::size_t{0}, std::size_t{10}}) {
    const double s0 = seed_averaged_success({0.0, crash_den});
    const double s5 = seed_averaged_success({0.05, crash_den});
    const double s20 = seed_averaged_success({0.2, crash_den});
    EXPECT_LE(s5, s0 + kTolerance) << "crash 1/" << crash_den;
    EXPECT_LE(s20, s5 + kTolerance) << "crash 1/" << crash_den;
    // And the far corner must show *real* degradation, not noise — the
    // injector is demonstrably doing something.
    EXPECT_LT(s20, s0) << "crash 1/" << crash_den;
  }
}

TEST(FaultMatrixShape, CrashRowDegradesBelowHealthyRow) {
  const double healthy = seed_averaged_success({0.05, 0});
  const double crashed = seed_averaged_success({0.05, 10});
  EXPECT_LE(crashed, healthy + kTolerance);
}

}  // namespace
}  // namespace aar::sim
