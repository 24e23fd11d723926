/**
 * @file
 * The two CLIs' output contracts. The rabsim and rabsweep --help texts
 * name every runahead config the two CLIs parse: both print the list
 * from kRunaheadConfigNames, so a config added to the table cannot
 * parse and still be missing from help. And `rabsim --json` prints one
 * JSON document whose stats and metrics equal, double for double, what
 * the same simulation reports in process.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/sim_config.hh"
#include "core/simulation.hh"
#include "stats/json.hh"
#include "sweep/report.hh"
#include "workloads/suite.hh"

namespace rab
{
namespace
{

/** Standard output of `@p exe @p args`; the command must exit 0. */
std::string
stdoutOf(const std::string &exe, const std::string &args)
{
    const std::string command = exe + " " + args;
    FILE *pipe = ::popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << command;
    if (!pipe)
        return {};
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        text.append(buf, n);
    EXPECT_EQ(::pclose(pipe), 0) << command << " exit status";
    return text;
}

/** Standard output of `@p exe --help`, every whitespace run collapsed
 *  to one space (the list may wrap anywhere). */
std::string
helpText(const std::string &exe)
{
    const std::string text = stdoutOf(exe, "--help");
    std::string collapsed;
    for (const char c : text) {
        const bool space = c == ' ' || c == '\n' || c == '\t';
        if (!space)
            collapsed += c;
        else if (!collapsed.empty() && collapsed.back() != ' ')
            collapsed += ' ';
    }
    return collapsed;
}

/** The table's CLI names in order, as help prints them unwrapped. */
std::string
expectedList()
{
    std::string list;
    for (const RunaheadConfigName &names : kRunaheadConfigNames) {
        if (!list.empty())
            list += " | ";
        list += names.cli;
    }
    return list;
}

TEST(CliHelp, RabsimListsEveryConfigName)
{
    EXPECT_NE(helpText(RABSIM_EXE).find("--config NAME " + expectedList()),
              std::string::npos)
        << helpText(RABSIM_EXE);
}

TEST(CliHelp, RabsweepListsEveryConfigName)
{
    EXPECT_NE(helpText(RABSWEEP_EXE).find(expectedList() + " optionally"),
              std::string::npos)
        << helpText(RABSWEEP_EXE);
}

TEST(CliHelp, ListWrapsAtTheWidth)
{
    const std::string list = runaheadConfigCliList(22, 64);
    std::size_t start = 0;
    bool first = true;
    while (start < list.size()) {
        const std::size_t end = list.find('\n', start);
        ASSERT_NE(end, std::string::npos);
        const std::size_t columns = end - start + (first ? 22 : 0);
        EXPECT_LE(columns, 64u) << list;
        if (!first) {
            EXPECT_EQ(list.compare(start, 22, std::string(22, ' ')), 0);
        }
        first = false;
        start = end + 1;
    }
}

/** rabsim's flags for one run, and the config and workloads they
 *  name, built as rabsim builds them. */
struct JsonCase
{
    std::string args;
    SimConfig config;
    std::vector<std::string> workloads;
};

JsonCase
jsonCase(std::string args, RunaheadConfig runahead,
         std::vector<std::string> workloads, bool faulted)
{
    JsonCase c{std::move(args) + " --instructions 4000 --warmup 1000",
               makeConfig(runahead, false), std::move(workloads)};
    c.config.numCores = static_cast<int>(c.workloads.size());
    c.config.instructions = 4'000;
    c.config.warmupInstructions = 1'000;
    if (faulted) {
        c.config.fault.enabled = true;
        c.config.fault.setAllRates(0.01);
        c.config.checkPolicy = CheckPolicy::kDegrade;
    }
    c.config.finalize();
    return c;
}

TEST(CliJson, RabsimPrintsOneDocumentOfExactStats)
{
    const std::vector<JsonCase> cases = {
        jsonCase("--workload mcf --config hybrid", RunaheadConfig::kHybrid,
                 {"mcf"}, false),
        jsonCase("--workload mcf --config hybrid --fault-rate 0.01 "
                 "--check-policy degrade",
                 RunaheadConfig::kHybrid, {"mcf"}, true),
        jsonCase("--cores 2 --mix mcf,libq", RunaheadConfig::kBaseline,
                 {"mcf", "libq"}, false),
    };
    for (const JsonCase &c : cases) {
        SCOPED_TRACE(c.args);
        const Json document =
            Json::parse(stdoutOf(RABSIM_EXE, c.args + " --json"));
        ASSERT_TRUE(document.isObject());
        ASSERT_EQ(document.size(), 2u);

        std::vector<Program> programs;
        for (const std::string &name : c.workloads)
            programs.push_back(buildSuiteWorkload(name));
        Simulation sim(c.config, std::move(programs));
        const SimResult result = sim.run();
        EXPECT_EQ(document.at("metrics").dump(),
                  simResultJson(result).dump());

        const Json &stats = document.at("stats");
        const std::map<std::string, double> &payload = sim.statPayload();
        ASSERT_EQ(stats.size(), payload.size());
        for (const auto &[name, value] : stats.members()) {
            const auto it = payload.find(name);
            ASSERT_NE(it, payload.end()) << name;
            EXPECT_EQ(value.asDouble(), it->second) << name;
        }
        if (c.config.fault.enabled) {
            EXPECT_NE(payload.find("faults.uop_flips"), payload.end());
        }
    }
}

} // namespace
} // namespace rab
