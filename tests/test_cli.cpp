// End-to-end regression tests for the aar_sim command line, driven through
// std::system against the real binary (path injected as AAR_SIM_BINARY by
// tests/CMakeLists.txt).
//
// The headline regression: unknown flags used to be SILENTLY IGNORED — the
// parser consumed "--key value" pairs it did not recognize, so a typo like
// `--block_size 5000` ran the command with the default block size and
// reported success.  aar_sim must exit nonzero (2, the usage status) for
// unknown flags, flags missing their value, and stray positional arguments.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "test_tmp.hpp"

namespace {

#ifndef AAR_SIM_BINARY
#error "tests/CMakeLists.txt must define AAR_SIM_BINARY"
#endif

/// Run aar_sim with `args`, discarding output; returns the exit status.
int run_sim(const std::string& args) {
  const std::string command =
      std::string(AAR_SIM_BINARY) + " " + args + " > /dev/null 2>&1";
  const int raw = std::system(command.c_str());
  return WEXITSTATUS(raw);
}

TEST(CliUsage, UnknownFlagIsAHardError) {
  EXPECT_EQ(run_sim("run --bogus 1"), 2);
  EXPECT_EQ(run_sim("compare --block_size 5000"), 2);  // the classic typo
  EXPECT_EQ(run_sim("generate --pairs 100 --out /tmp/x.csv --frobnicate 1"),
            2);
}

TEST(CliUsage, FlagValidityIsPerCommand) {
  // --strategy belongs to run, not compare; --window to rules, not run.
  EXPECT_EQ(run_sim("compare --strategy sliding"), 2);
  EXPECT_EQ(run_sim("run --strategy sliding --window 100"), 2);
}

TEST(CliUsage, FlagMissingItsValueIsAHardError) {
  EXPECT_EQ(run_sim("run --strategy"), 2);
  EXPECT_EQ(run_sim("compare --blocks 3 --seed"), 2);
}

TEST(CliUsage, StrayPositionalArgumentIsAHardError) {
  EXPECT_EQ(run_sim("run sliding"), 2);
  EXPECT_EQ(run_sim("run --strategy sliding extra"), 2);
}

TEST(CliUsage, UnknownCommandPrintsUsage) {
  EXPECT_EQ(run_sim("frobnicate"), 2);
  EXPECT_EQ(run_sim(""), 2);
}

TEST(CliUsage, ValidInvocationsStillSucceed) {
  EXPECT_EQ(run_sim("run --strategy sliding --blocks 3 --block-size 500"), 0);
  // --no-timers is a boolean flag: takes no value, must not eat the next
  // token.  --threads routes through the parallel engine.
  EXPECT_EQ(run_sim("run --strategy sliding --blocks 3 --block-size 500 "
                    "--no-timers --threads 2"),
            0);
  EXPECT_EQ(run_sim("compare --pairs 4000 --block-size 500 --threads 2"), 0);
}

TEST(CliUsage, StrategyParametersAreRangeChecked) {
  // Each of these used to run and exit 0: a value past 32 bits was cast
  // down (--min-support 4294967306 ran with 10, --period 4294967297 ran
  // lazy(1)) and a zero ran a degenerate strategy.
  const std::string run = "run --blocks 3 --block-size 500 ";
  EXPECT_EQ(run_sim(run + "--strategy sliding --min-support 4294967306"), 2);
  EXPECT_EQ(run_sim(run + "--strategy lazy --period 4294967297"), 2);
  EXPECT_EQ(run_sim(run + "--strategy sliding --min-support 0"), 2);
  EXPECT_EQ(run_sim(run + "--strategy lazy --period 0"), 2);
  EXPECT_EQ(run_sim(run + "--strategy adaptive --history 0"), 2);
  const std::string compare = "compare --pairs 4000 --block-size 500 ";
  EXPECT_EQ(run_sim(compare + "--min-support 4294967306"), 2);
  EXPECT_EQ(run_sim(compare + "--period 4294967297"), 2);
  EXPECT_EQ(run_sim(compare + "--min-support 0"), 2);
  EXPECT_EQ(run_sim(compare + "--period 0"), 2);
  EXPECT_EQ(run_sim(compare + "--history 0"), 2);
}

TEST(CliUsage, StrategyParameterBoundsAreAccepted) {
  const std::string run = "run --blocks 3 --block-size 500 ";
  EXPECT_EQ(run_sim(run + "--strategy lazy --min-support 1 --period 4294967295"),
            0);
  EXPECT_EQ(run_sim(run + "--strategy adaptive --min-support 4294967295 "
                          "--history 1"),
            0);
}

TEST(CliUsage, CountsAreReadAtTheirRealWidth) {
  // Each of these used to run and exit 0: the value was read as a u64 and
  // cast down to the 32-bit field, so --block-size 4294967306 wrote the
  // same file as --block-size 10 and --chunk 4294967296 wrote chunks of
  // one record.
  const std::string csv = aar::testing::unique_path("cli_width.csv");
  const std::string aartr = aar::testing::unique_path("cli_width.aartr");
  EXPECT_EQ(run_sim("generate --pairs 100 --block-size 4294967306 --out " + csv),
            2);
  ASSERT_EQ(run_sim("generate --pairs 100 --block-size 10 --out " + csv), 0);
  EXPECT_EQ(run_sim("convert --in " + csv + " --out " + aartr +
                    " --chunk 4294967296"),
            2);
  EXPECT_EQ(run_sim("convert --in " + csv + " --out " + aartr +
                    " --chunk 4294967295"),
            0);
  std::remove(csv.c_str());
  std::remove(aartr.c_str());
}

TEST(CliUsage, ZeroBlockSizeIsRefused) {
  // generate used to exit 0 with every timestamp "inf"; run exited 1.
  const std::string csv = aar::testing::unique_path("cli_zero.csv");
  EXPECT_EQ(run_sim("generate --pairs 100 --block-size 0 --out " + csv), 2);
  EXPECT_EQ(run_sim("run --strategy sliding --pairs 1000 --block-size 0"), 2);
  // A zero aartr chunk size used to exit 0 and write one-record chunks.
  ASSERT_EQ(run_sim("generate --pairs 100 --out " + csv), 0);
  const std::string aartr = aar::testing::unique_path("cli_zero.aartr");
  EXPECT_EQ(run_sim("convert --in " + csv + " --out " + aartr + " --chunk 0"),
            2);
  std::remove(aartr.c_str());
  std::remove(csv.c_str());
}

TEST(CliUsage, ThreadsAreCappedAt64) {
  // Rejected while parsing, before any thread starts.
  EXPECT_EQ(run_sim("run --strategy sliding --blocks 3 --block-size 500 "
                    "--threads 65"),
            2);
  EXPECT_EQ(run_sim("compare --pairs 4000 --block-size 500 --threads 65"), 2);
  EXPECT_EQ(run_sim("scale --nodes 300 --threads 65"), 2);
}

TEST(CliUsage, MissingStrategyIsAUsageError) {
  EXPECT_EQ(run_sim("run --blocks 3 --block-size 500"), 2);
}

TEST(CliScale, StrictFlagValidation) {
  // Unknown flag, classic underscore typo, missing value, stray positional,
  // flag from another subcommand — all hard usage errors (exit 2).
  EXPECT_EQ(run_sim("scale --bogus 1"), 2);
  EXPECT_EQ(run_sim("scale --block_size 5000"), 2);
  EXPECT_EQ(run_sim("scale --nodes"), 2);
  EXPECT_EQ(run_sim("scale 4000"), 2);
  EXPECT_EQ(run_sim("scale --strategy sliding"), 2);
  EXPECT_EQ(run_sim("scale --scenario foo.v1"), 2);
  // Degenerate configs are rejected, not run.
  EXPECT_EQ(run_sim("scale --nodes 1"), 2);
  EXPECT_EQ(run_sim("scale --nodes 100 --epochs 0"), 2);
  // attach >= nodes used to crash a Release build (exit 139): the
  // Barabási–Albert clique seed wrote peers that do not exist.
  const std::string tiny = "--searches 5 --epochs 1 --warmup 1 --churn 0";
  EXPECT_EQ(run_sim("scale --nodes 3 --attach 5 " + tiny), 2);
  EXPECT_EQ(run_sim("scale --nodes 3 --attach 3 " + tiny), 2);
  EXPECT_EQ(run_sim("scale --nodes 3 --attach 0 " + tiny), 2);
  EXPECT_EQ(run_sim("scale --nodes 3 --attach 2 " + tiny), 0);
}

TEST(CliScale, MalformedNumbersAreUsageErrors) {
  // Each value used to run anyway: strtol/strtod read a prefix or
  // nothing, so "abc" ran lossless, 1.5 dropped every message, "300x" ran
  // 300 peers, and -3 died allocating a huge vector.
  EXPECT_EQ(run_sim("scale --nodes 300 --drop abc"), 2);
  EXPECT_EQ(run_sim("scale --nodes 300 --drop 1.5"), 2);
  EXPECT_EQ(run_sim("scale --nodes 300 --drop -0.1"), 2);
  EXPECT_EQ(run_sim("scale --nodes 300 --drop nan"), 2);
  EXPECT_EQ(run_sim("scale --nodes 300x"), 2);
  EXPECT_EQ(run_sim("scale --nodes -3"), 2);
  EXPECT_EQ(run_sim("scale --nodes ''"), 2);
  EXPECT_EQ(run_sim("scale --nodes 300 --threads 2.5"), 2);
  EXPECT_EQ(run_sim("run --strategy sliding --blocks 3x"), 2);
  EXPECT_EQ(run_sim("rules --blocks 3 --min-confidence 2"), 2);
}

TEST(CliScale, CountsAreReadAtTheirRealWidth) {
  // Each used to run and exit 0 with the value cast down to 32 bits:
  // --ttl 4294967300 ran TTL 4, and --timeout 4294967302 --retries
  // 4294967297 matched --timeout 6 --retries 1.
  const std::string scale = "scale --nodes 300 --warmup 0 --searches 20 "
                            "--epochs 1 ";
  EXPECT_EQ(run_sim(scale + "--ttl 4294967300"), 2);
  EXPECT_EQ(run_sim(scale + "--timeout 4294967302"), 2);
  EXPECT_EQ(run_sim(scale + "--retries 4294967297"), 2);
}

TEST(CliScale, BoundaryNumbersAreAccepted) {
  EXPECT_EQ(run_sim("scale --nodes 300 --warmup 0 --searches 20 --epochs 1 "
                    "--churn 0 --drop 1"),
            0);
  EXPECT_EQ(run_sim("scale --nodes 300 --warmup 0 --searches 20 --epochs 1 "
                    "--drop 0.05"),
            0);
}

TEST(CliScale, SmallPopulationRunSucceeds) {
  EXPECT_EQ(run_sim("scale --nodes 300 --warmup 10 --searches 30 --epochs 2 "
                    "--churn 3 --threads 2 --shards 8"),
            0);
}

}  // namespace
