/**
 * @file
 * Unit tests: experiment helpers, the paper's figures as views over
 * one campaign, and the first paper claims checked against a run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "sweep/campaign.hh"
#include "sweep/figures.hh"
#include "workloads/suite.hh"

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
}

/** Set RAB_THREADS to @p value, then resolve the thread count (run
 *  inside EXPECT_EXIT's child). */
void
resolveWith(const char *value)
{
    ::setenv("RAB_THREADS", value, 1);
    resolveThreads(0);
}

TEST(ResolveThreads, MalformedEnvironmentIsFatal)
{
    // Each exits 1 naming the variable and the value, as a bad
    // RAB_CHECK_LEVEL does: read loosely, "-3" would wrap to a
    // huge pool.
    const auto exits = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(resolveWith("-3"), exits,
                "RAB_THREADS='-3' is not an integer in \\[0, 2147483647\\]");
    EXPECT_EXIT(resolveWith("2147483648"), exits,
                "RAB_THREADS='2147483648'");
    EXPECT_EXIT(resolveWith("4k"), exits, "RAB_THREADS='4k'");

    // The largest accepted value still parses.
    ::setenv("RAB_THREADS", "2147483647", 1);
    EXPECT_EQ(resolveThreads(0), 2147483647);
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

std::vector<const Figure *>
allFigures()
{
    std::vector<const Figure *> figures;
    for (const Figure &figure : paperFigures())
        figures.push_back(&figure);
    return figures;
}

std::vector<std::string>
mediumHighNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : mediumHighSuite())
        names.push_back(spec.params.name);
    return names;
}

/** Table 1 is rabsim --print-config; every other table and figure of
 *  the paper's evaluation has a view. */
TEST(Figures, PaperOrderAndLookup)
{
    std::vector<std::string> names;
    for (const Figure *figure : allFigures())
        names.push_back(figure->name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
                         "fig9", "fig10", "fig11", "fig12", "fig13",
                         "fig14", "fig15", "fig16", "fig17", "fig18"}));
    ASSERT_NE(findFigure("fig10"), nullptr);
    EXPECT_EQ(findFigure("fig10")->name, "fig10");
    EXPECT_EQ(findFigure("table1"), nullptr);
    EXPECT_EQ(findFigure("all"), nullptr);
}

/** Every figure renders from one tiny campaign; the medium+high
 *  figures print only their rows. */
TEST(Figures, EveryFigureRendersFromOneCampaign)
{
    CampaignSpec spec = figureCampaign(allFigures(), {"mcf", "h264"});
    spec.instructions = 2'000;
    spec.warmup = 500;
    EXPECT_EQ(spec.name, "figures");
    EXPECT_EQ(spec.workloads, (std::vector<std::string>{"h264", "mcf"}));
    EXPECT_EQ(spec.variants.size(), 12u);
    const CampaignResult campaign = runCampaign(spec, 2);
    ASSERT_EQ(campaign.failedCount(), 0u);
    for (const Figure *figure : allFigures()) {
        const std::string text = renderFigure(*figure, campaign);
        const std::string heading =
            strprintf("=== %s ===\n\n", figure->title.c_str());
        EXPECT_EQ(text.rfind(heading, 0), 0u) << figure->name;
        EXPECT_NE(text.find("\nmcf "), std::string::npos) << figure->name;
        EXPECT_EQ(text.find("h264") == std::string::npos,
                  figure->mediumHigh)
            << figure->name;
    }
}

/** Medium+high figures alone run those 13 workloads and only the
 *  cells they read, no-PF before PF; the whole grid is 29 x 12. */
TEST(Figures, CampaignHoldsOnlyTheCellsItsFiguresRead)
{
    const CampaignSpec fig10 =
        figureCampaign({findFigure("fig10"), findFigure("fig11")}, {});
    EXPECT_EQ(fig10.name, "figures");
    EXPECT_EQ(fig10.workloads, mediumHighNames());
    std::vector<std::string> labels;
    for (const ConfigVariant &variant : fig10.variants)
        labels.push_back(variant.label);
    EXPECT_EQ(labels, (std::vector<std::string>{
                          "Runahead", "RA-Buffer+CC", "Runahead+PF",
                          "RA-Buffer+CC+PF"}));
    EXPECT_EQ(fig10.pointCount(), 13u * 4u);

    const CampaignSpec single = figureCampaign({findFigure("fig14")}, {});
    EXPECT_EQ(single.name, "fig14");
    EXPECT_EQ(single.workloads, mediumHighNames());
    ASSERT_EQ(single.variants.size(), 1u);
    EXPECT_EQ(single.variants[0].label, "Hybrid");

    const CampaignSpec all = figureCampaign(allFigures(), {});
    EXPECT_EQ(all.workloads.size(), spec06Suite().size());
    EXPECT_EQ(all.pointCount(), 348u);
}

/** --workloads narrows the rows; the suite's full SPEC names select
 *  their abbreviated workloads, as everywhere else. */
TEST(Figures, WorkloadsResolveThroughTheSuite)
{
    const CampaignSpec spec = figureCampaign(
        {findFigure("fig9")}, {"libquantum", "cactusADM"});
    EXPECT_EQ(spec.workloads, (std::vector<std::string>{"cactus", "libq"}));
    EXPECT_THROW(figureCampaign({findFigure("fig9")}, {"bogus"}),
                 std::runtime_error);
    // No medium+high figure has a row for a low-intensity workload.
    EXPECT_THROW(figureCampaign({findFigure("fig10")}, {"mcf", "h264"}),
                 std::runtime_error);
}

/** A cell the campaign did not run is a programming error, never a
 *  silent extra simulation. */
TEST(FigureRowsDeathTest, CellOutsideTheCampaignPanics)
{
    CampaignSpec spec = figureCampaign({findFigure("fig11")}, {"mcf"});
    spec.instructions = 1'000;
    spec.warmup = 0;
    const CampaignResult campaign = runCampaign(spec, 1);
    const FigureRows rows(campaign, true);
    ASSERT_EQ(rows.workloads().size(), 1u);
    EXPECT_DEATH(rows.get(rows.workloads().front(),
                          RunaheadConfig::kHybrid, false),
                 "no ok point for cell mcf/Hybrid");
}

/**
 * The paper's first two claims, at a budget small enough for every
 * test run: Fig 9's medium+high GMean ordering 0 < Runahead <
 * Runahead-Buffer < RA-Buffer+CC < Hybrid, and Fig 10's RA-Buffer+CC
 * generating over 1.5x the misses per interval of traditional
 * runahead, without and with the stream prefetcher.
 */
TEST(Claims, Fig9OrderingAndFig10Mlp)
{
    CampaignSpec spec = figureCampaign(
        {findFigure("fig9"), findFigure("fig10")}, mediumHighNames());
    spec.instructions = 10'000;
    spec.warmup = 2'500;
    const CampaignResult campaign = runCampaign(spec, 2);
    ASSERT_EQ(campaign.points.size(), 91u);
    ASSERT_EQ(campaign.failedCount(), 0u);
    const FigureRows rows(campaign, true);
    ASSERT_EQ(rows.workloads().size(), 13u);

    const auto gmean = [&rows](RunaheadConfig config) {
        std::vector<double> speedups;
        for (const WorkloadSpec &w : rows.workloads()) {
            const double base =
                rows.get(w, RunaheadConfig::kBaseline, false).ipc;
            speedups.push_back(rows.get(w, config, false).ipc / base
                               - 1.0);
        }
        return geomeanSpeedup(speedups);
    };
    const double runahead = gmean(RunaheadConfig::kRunahead);
    const double buffer = gmean(RunaheadConfig::kRunaheadBuffer);
    const double buffer_cc = gmean(RunaheadConfig::kRunaheadBufferCC);
    const double hybrid = gmean(RunaheadConfig::kHybrid);
    EXPECT_LT(0.0, runahead);
    EXPECT_LT(runahead, buffer);
    EXPECT_LT(buffer, buffer_cc);
    EXPECT_LT(buffer_cc, hybrid);

    for (const bool prefetch : {false, true}) {
        double runahead_misses = 0;
        double buffer_misses = 0;
        for (const WorkloadSpec &w : rows.workloads()) {
            runahead_misses +=
                rows.get(w, RunaheadConfig::kRunahead, prefetch)
                    .missesPerInterval;
            buffer_misses +=
                rows.get(w, RunaheadConfig::kRunaheadBufferCC, prefetch)
                    .missesPerInterval;
        }
        EXPECT_GT(buffer_misses, 1.5 * runahead_misses)
            << (prefetch ? "with" : "without") << " prefetching";
    }
}

} // namespace
} // namespace rab
