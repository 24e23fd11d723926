/**
 * @file
 * Unit tests: experiment/bench harness helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "core/experiment.hh"

namespace rab
{
namespace
{

TEST(Geomean, PlainValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Geomean, SkipsNonPositiveValues)
{
    // Zeros and negatives (failed points) are excluded from the mean,
    // not clamped: the result over {4, 0, 9} is the mean of {4, 9}.
    EXPECT_DOUBLE_EQ(geomean({4.0, 0.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({-3.0, 5.0}), 5.0);
    // Nothing positive left: 0, never NaN or a clamped epsilon mean.
    EXPECT_DOUBLE_EQ(geomean({0.0, -1.0}), 0.0);
}

TEST(ResolveThreads, CliOverridesEnvOverridesHardware)
{
    ::setenv("RAB_THREADS", "3", 1);
    EXPECT_EQ(resolveThreads(5), 5); // explicit CLI value wins
    EXPECT_EQ(resolveThreads(0), 3); // then RAB_THREADS
    ::unsetenv("RAB_THREADS");
    EXPECT_GE(resolveThreads(0), 1); // then hardware, always >= 1
    // BenchOptions::fromEnv shares the same precedence chain.
    ::setenv("RAB_THREADS", "2", 1);
    EXPECT_EQ(BenchOptions::fromEnv().threads, 2);
    ::unsetenv("RAB_THREADS");
}

TEST(Geomean, SpeedupsMatchPaperConvention)
{
    // GMean of +10% and +10% is +10%.
    EXPECT_NEAR(geomeanSpeedup({0.10, 0.10}), 0.10, 1e-12);
    // A slowdown pulls the mean down through the ratio, not the diff.
    const double g = geomeanSpeedup({0.21, -0.10});
    EXPECT_NEAR(g, std::sqrt(1.21 * 0.90) - 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomeanSpeedup({}), 0.0);
}

TEST(TextTable, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"longer-name", "22"});
    const std::string s = table.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    // Header separator line exists.
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "cells");
}

TEST(BenchOptions, ReadsEnvironment)
{
    ::setenv("RAB_INSTRUCTIONS", "1234", 1);
    ::setenv("RAB_WARMUP", "99", 1);
    ::setenv("RAB_WORKLOADS", "mcf,libq", 1);
    const BenchOptions options = BenchOptions::fromEnv(5, 6);
    EXPECT_EQ(options.instructions, 1234u);
    EXPECT_EQ(options.warmup, 99u);
    ASSERT_EQ(options.workloadFilter.size(), 2u);
    EXPECT_EQ(options.workloadFilter[0], "mcf");
    EXPECT_EQ(options.workloadFilter[1], "libq");
    ::unsetenv("RAB_INSTRUCTIONS");
    ::unsetenv("RAB_WARMUP");
    ::unsetenv("RAB_WORKLOADS");
    const BenchOptions defaults = BenchOptions::fromEnv(5, 6);
    EXPECT_EQ(defaults.instructions, 5u);
    EXPECT_EQ(defaults.warmup, 6u);
    EXPECT_TRUE(defaults.workloadFilter.empty());
}

/** Set @p name to @p value, then read the bench sizing from the
 *  environment (run inside EXPECT_EXIT's child). */
void
readEnvWith(const char *name, const char *value)
{
    ::setenv(name, value, 1);
    BenchOptions::fromEnv();
}

TEST(BenchOptions, MalformedNumbersAreFatal)
{
    // Each exits 1 naming the variable and the value, as a bad
    // RAB_CHECK_LEVEL does: read loosely, "200k" would size a bench at
    // 200 instructions and "1e5" its warmup at 1.
    const auto exits = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(readEnvWith("RAB_INSTRUCTIONS", "200k"), exits,
                "RAB_INSTRUCTIONS='200k' is not an integer >= 0");
    EXPECT_EXIT(readEnvWith("RAB_WARMUP", "1e5"), exits,
                "RAB_WARMUP='1e5'");
    EXPECT_EXIT(readEnvWith("RAB_WARMUP", "18446744073709551616"), exits,
                "RAB_WARMUP='18446744073709551616'");
    EXPECT_EXIT(readEnvWith("RAB_INSTRUCTIONS", " 5"), exits,
                "RAB_INSTRUCTIONS=' 5'");
    EXPECT_EXIT(readEnvWith("RAB_THREADS", "-3"), exits,
                "RAB_THREADS='-3' is not an integer in \\[0, 2147483647\\]");
    EXPECT_EXIT(readEnvWith("RAB_THREADS", "2147483648"), exits,
                "RAB_THREADS='2147483648'");

    // The largest accepted values still parse.
    ::setenv("RAB_THREADS", "2147483647", 1);
    EXPECT_EQ(resolveThreads(0), 2147483647);
    ::setenv("RAB_INSTRUCTIONS", "18446744073709551615", 1);
    EXPECT_EQ(BenchOptions::fromEnv().instructions, 18446744073709551615u);
    ::unsetenv("RAB_THREADS");
    ::unsetenv("RAB_INSTRUCTIONS");
}

TEST(SelectWorkloads, FiltersByName)
{
    const auto &all = spec06Suite();
    EXPECT_EQ(selectWorkloads(all, {}).size(), all.size());
    const auto some = selectWorkloads(all, {"mcf", "libq"});
    ASSERT_EQ(some.size(), 2u);
    EXPECT_EQ(some[0].params.name, "libq"); // suite order preserved
    EXPECT_EQ(some[1].params.name, "mcf");
}

/** A typo must not run an empty figure and exit 0. */
TEST(SelectWorkloads, UnknownNameIsFatal)
{
    EXPECT_EXIT(selectWorkloads(spec06Suite(), {"mcf", "bogus"}),
                ::testing::ExitedWithCode(1), "'bogus' is not a workload");
}

/** The suite's full SPEC names select their abbreviated workloads, as
 *  they do in rabsim and rabsweep. */
TEST(SelectWorkloads, AcceptsSuiteAliases)
{
    const auto some =
        selectWorkloads(spec06Suite(), {"libquantum", "cactusADM"});
    ASSERT_EQ(some.size(), 2u);
    EXPECT_EQ(some[0].params.name, "cactus");
    EXPECT_EQ(some[1].params.name, "libq");
}

/** get() on an empty cache runs the cell through the sweep engine,
 *  then serves it from the cache. */
TEST(CellRunner, GetRunsAMissingCell)
{
    BenchOptions options;
    options.instructions = 2'000;
    options.warmup = 500;
    CellRunner runner(options);
    const WorkloadSpec *spec = findWorkload("mcf");
    ASSERT_NE(spec, nullptr);
    const SimResult &r = runner.get(*spec, RunaheadConfig::kBaseline, false);
    EXPECT_GE(r.instructions, 2'000u);
    EXPECT_EQ(r.workload, "mcf");
    EXPECT_EQ(&runner.get(*spec, RunaheadConfig::kBaseline, false), &r);
}

} // namespace
} // namespace rab
