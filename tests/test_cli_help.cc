/**
 * @file
 * The rabsim and rabsweep --help texts name every runahead config the
 * two CLIs parse: both print the list from kRunaheadConfigNames, so a
 * config added to the table cannot parse and still be missing from
 * help.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/sim_config.hh"

namespace rab
{
namespace
{

/** Standard output of `@p exe --help`, every whitespace run collapsed
 *  to one space (the list may wrap anywhere). */
std::string
helpText(const std::string &exe)
{
    FILE *pipe = ::popen((exe + " --help").c_str(), "r");
    EXPECT_NE(pipe, nullptr) << exe;
    if (!pipe)
        return {};
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        text.append(buf, n);
    EXPECT_EQ(::pclose(pipe), 0) << exe << " --help exit status";
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

} // namespace
} // namespace rab
