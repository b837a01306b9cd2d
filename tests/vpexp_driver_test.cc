/**
 * @file
 * Tests for the vpexp driver CLI (exp/vpexp.hh): exit codes, --list
 * output, format/output-directory handling, and the shape of the
 * machine-readable results.
 *
 * The driver runs in-process (vpexpMain), so these tests pin the
 * exact contract the ctest bench_smoke.vpexp_* shards and CI rely on.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/spec.hh"
#include "exp/vpexp.hh"
#include "scratch_dir.hh"

namespace {

using namespace vp;
using test::ScratchDir;
namespace fs = std::filesystem;

int
runDriver(const std::vector<std::string> &args, std::string *out = nullptr)
{
    std::vector<std::string> full = {"vpexp"};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<const char *> argv;
    for (const auto &arg : full)
        argv.push_back(arg.c_str());

    testing::internal::CaptureStdout();
    const int rc = exp::vpexpMain(static_cast<int>(argv.size()),
                                  argv.data());
    const std::string captured = testing::internal::GetCapturedStdout();
    if (out)
        *out = captured;
    return rc;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Braces/brackets balance and strings terminate outside strings. */
void
expectStructurallyValidJson(const std::string &text)
{
    int braces = 0, brackets = 0;
    bool in_string = false, escaped = false;
    for (const char c : text) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
        } else if (c == '"') {
            in_string = !in_string;
        } else if (!in_string) {
            braces += c == '{' ? 1 : c == '}' ? -1 : 0;
            brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
            ASSERT_GE(braces, 0);
            ASSERT_GE(brackets, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(VpexpCli, ListShowsEveryRegisteredExperiment)
{
    std::string out;
    EXPECT_EQ(runDriver({"--list"}, &out), 0);
    for (const auto &experiment : exp::registry().all()) {
        EXPECT_NE(out.find(experiment.name), std::string::npos)
                << experiment.name;
        EXPECT_NE(out.find(experiment.description), std::string::npos)
                << experiment.name;
    }
}

TEST(VpexpCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(runDriver({}), 2);                       // nothing to run
    EXPECT_EQ(runDriver({"no-such-experiment"}), 2);
    EXPECT_EQ(runDriver({"table1", "--format", "yaml"}), 2);
    EXPECT_EQ(runDriver({"table1", "--format", "csv"}), 2);  // no --out
    EXPECT_EQ(runDriver({"table1", "--jobs", "banana"}), 2);
    EXPECT_EQ(runDriver({"table1", "--jobs", "1O"}), 2);   // trailing junk
    EXPECT_EQ(runDriver({"table1", "--jobs", "-2"}), 2);
    EXPECT_EQ(runDriver({"table1", "--bogus-flag"}), 2);
    EXPECT_EQ(runDriver({"--jobs"}), 2);               // missing value
    // Whole-trace serial replay is the only replay path: the old
    // region-split flags are unknown options now, whatever the value.
    for (const char *flag : {"--regions", "--warmup"})
        EXPECT_EQ(runDriver({"table1", flag, "2"}), 2) << flag;
    EXPECT_EQ(runDriver({"table1", "--window", "never"}), 2);
    EXPECT_EQ(runDriver({"table1", "--window", "0"}), 2);
    EXPECT_EQ(runDriver({"table1", "--window", "-4"}), 2);
    EXPECT_EQ(runDriver({"--window"}), 2);             // missing value
    EXPECT_EQ(runDriver({"--trace-json"}), 2);         // missing value
}

TEST(VpexpCli, HelpExitsZero)
{
    std::string out;
    EXPECT_EQ(runDriver({"--help"}, &out), 0);
    EXPECT_NE(out.find("usage: vpexp"), std::string::npos);
    EXPECT_NE(out.find("--spec-help"), std::string::npos);
}

TEST(VpexpCli, SpecHelpPrintsTheGrammar)
{
    std::string out;
    EXPECT_EQ(runDriver({"--spec-help"}, &out), 0);
    // The one grammar source of truth (exp::specGrammarHelp).
    EXPECT_EQ(out, exp::specGrammarHelp());
    EXPECT_NE(out.find("hybrid("), std::string::npos);
    EXPECT_NE(out.find(";ch@"), std::string::npos);
}

TEST(VpexpCli, RunsANamedExperimentAndPrintsItsTitle)
{
    std::string out;
    EXPECT_EQ(runDriver({"table1"}, &out), 0);
    EXPECT_NE(out.find("Table 1: Behavior of Prediction Models"),
              std::string::npos);
    EXPECT_NE(out.find("sequence"), std::string::npos);
    // The run summary names the cell/dedup accounting.
    EXPECT_NE(out.find("unique cell"), std::string::npos);
}

TEST(VpexpCli, DuplicateNamesRunOnce)
{
    std::string out;
    EXPECT_EQ(runDriver({"table1", "table1"}, &out), 0);
    EXPECT_NE(out.find("1 experiment,"), std::string::npos);
}

TEST(VpexpCli, JsonFormatPrintsMachineReadableResults)
{
    std::string out;
    EXPECT_EQ(runDriver({"table1", "figure2", "--format", "json"},
                        &out),
              0);
    EXPECT_EQ(out.rfind('{', 0), 0u) << "JSON must start the output";
    EXPECT_NE(out.find("\"schema\": \"vpexp-results-v2\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\": \"table1\""), std::string::npos);
    EXPECT_NE(out.find("\"name\": \"figure2\""), std::string::npos);
    // v2 dropped the region-replay fields, run-wide and per cell.
    EXPECT_EQ(out.find("\"regions\""), std::string::npos);
    EXPECT_EQ(out.find("\"warmupEvents\""), std::string::npos);
    // No run summary in pure-json mode (report text and titles
    // legitimately appear *inside* the JSON strings).
    EXPECT_EQ(out.find("vpexp: "), std::string::npos);

    // Structural sanity: braces and brackets balance.
    expectStructurallyValidJson(out);
}

TEST(VpexpCli, OutDirectoryGetsTextCsvAndResultsJson)
{
    const ScratchDir scratch;
    std::string out;
    EXPECT_EQ(runDriver({"table1", "--out",
                         scratch.path().string()},
                        &out),
              0);
    EXPECT_TRUE(fs::exists(scratch.path() / "table1.txt"));
    EXPECT_TRUE(fs::exists(scratch.path() / "table1.learning.csv"));
    EXPECT_TRUE(fs::exists(scratch.path() / "BENCH_results.json"));

    const auto text = slurp(scratch.path() / "table1.txt");
    EXPECT_NE(text.find("Table 1: Behavior"), std::string::npos);
    const auto csv = slurp(scratch.path() / "table1.learning.csv");
    EXPECT_EQ(csv.rfind("sequence,", 0), 0u)
            << "CSV starts with the header row";
    const auto json = slurp(scratch.path() / "BENCH_results.json");
    EXPECT_NE(json.find("\"schema\": \"vpexp-results-v2\""),
              std::string::npos);
}

TEST(VpexpCli, FormatTableOnlyWritesNoCsvOrJson)
{
    const ScratchDir scratch;
    EXPECT_EQ(runDriver({"figure2", "--out", scratch.path().string(),
                         "--format", "table"}),
              0);
    EXPECT_TRUE(fs::exists(scratch.path() / "figure2.txt"));
    EXPECT_FALSE(fs::exists(scratch.path() / "BENCH_results.json"));
}

TEST(VpexpCli, DryRunSmokesASuiteExperimentQuickly)
{
    const ScratchDir scratch;
    std::string out;
    EXPECT_EQ(runDriver({"figure5", "--dry-run", "--jobs", "2",
                         "--out", scratch.path().string(),
                         "--format", "json"},
                        &out),
              0);
    const auto json = slurp(scratch.path() / "BENCH_results.json");
    EXPECT_NE(json.find("\"dryRun\": true"), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"compress\""),
              std::string::npos);
    EXPECT_NE(json.find("\"spec\": \"fcm3\""), std::string::npos);
    EXPECT_NE(json.find("\"coverage\": "), std::string::npos);
    EXPECT_NE(json.find("\"profitAtCost4\": "), std::string::npos);
}

TEST(VpexpCli, ResultsJsonCarriesPerCellCounters)
{
    const ScratchDir scratch;
    EXPECT_EQ(runDriver({"figure5", "--dry-run", "--out",
                         scratch.path().string(), "--format", "json"}),
              0);
    const auto json = slurp(scratch.path() / "BENCH_results.json");
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
    EXPECT_NE(json.find("\"replay.events\""), std::string::npos);
    EXPECT_NE(json.find("\"trace.io.blocks\""), std::string::npos);
    EXPECT_NE(json.find("\"replay.batch_fill\""), std::string::npos);
    EXPECT_NE(json.find("\"queuedMs\""), std::string::npos);
}

TEST(VpexpCli, WindowFlagEmitsSeriesAndCsv)
{
    const ScratchDir scratch;
    EXPECT_EQ(runDriver({"figure5", "--dry-run", "--window", "8192",
                         "--out", scratch.path().string(), "--format",
                         "json"}),
              0);
    const auto json = slurp(scratch.path() / "BENCH_results.json");
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("\"windowEvents\": 8192"), std::string::npos);
    EXPECT_NE(json.find("\"windows\": {"), std::string::npos);
    EXPECT_NE(json.find("\"endEvent\": 8192"), std::string::npos);

    const auto csv = slurp(scratch.path() / "windows.csv");
    EXPECT_EQ(csv.rfind("cell,workload,spec,endEvent,eligible,"
                        "predicted,correct\n",
                        0),
              0u);
    EXPECT_NE(csv.find(",compress,"), std::string::npos);
    EXPECT_NE(csv.find(",8192,"), std::string::npos);
}

TEST(VpexpCli, TraceJsonWritesALoadableTimeline)
{
    const ScratchDir scratch;
    const auto trace_path = scratch.path() / "timeline.json";
    // A private trace cache, so the recording spans appear even when
    // an earlier case in this process already recorded these traces.
    EXPECT_EQ(runDriver({"figure5", "--dry-run", "--trace-json",
                         trace_path.string(), "--trace-cache",
                         (scratch.path() / "traces").string()}),
              0);
    ASSERT_TRUE(fs::exists(trace_path));
    const auto json = slurp(trace_path);
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    // The layers all reported in: scheduler cells, suite replays,
    // trace-cache recordings, report generation.
    EXPECT_NE(json.find("\"cell compress\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"replay\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"trace-cache\""), std::string::npos);
    EXPECT_NE(json.find("\"report figure5\""), std::string::npos);
}

TEST(VpexpCli, StatsFlagPrintsTheCounterTables)
{
    std::string out;
    EXPECT_EQ(runDriver({"figure5", "--dry-run", "--stats"}, &out), 0);
    EXPECT_NE(out.find("instrumentation counters"), std::string::npos);
    EXPECT_NE(out.find("replay.events"), std::string::npos);
    EXPECT_NE(out.find("replay.batch_fill"), std::string::npos);
    EXPECT_NE(out.find("peak RSS: "), std::string::npos);
}

TEST(VpexpCli, StatsReportBoundedTableReservations)
{
    // Gauges keep the maximum over a bank: l@1048576x16 reserves
    // 2^20 slots of key, LRU stamp, valid flag and a 32-byte entry.
    std::string out;
    EXPECT_EQ(runDriver({"capacity", "--dry-run", "--stats"}, &out), 0);
    const auto row = out.find("lv.reserved_bytes (max)");
    ASSERT_NE(row, std::string::npos);
    const auto line = out.substr(row, out.find('\n', row) - row);
    EXPECT_NE(line.find(std::to_string((8 + 8 + 1 + 32) << 20)),
              std::string::npos)
            << line;
    EXPECT_NE(out.find("fcm.vpt.reserved_bytes (max)"),
              std::string::npos);
}

} // anonymous namespace
