/**
 * @file
 * Tests for the cell-level scheduler (exp/experiment.hh): dedup of
 * identical (workload, predictor-bank) cells across experiments,
 * byte-identical results regardless of worker count, error
 * propagation, and the wall-clock bar against the legacy
 * one-runSuite-per-binary layout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "exp/experiment.hh"
#include "obs/instrumentation.hh"
#include "scratch_dir.hh"

namespace {

using namespace vp;
using namespace vp::exp;
using test::ScratchDir;

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
            .count();
}

SuiteOptions
smokeOptions()
{
    SuiteOptions options;
    options.predictors = {"l", "s2", "fcm1", "fcm2", "fcm3"};
    options.config.scale = dryRunScale;
    return options;
}

void
expectIdenticalRuns(const std::vector<BenchmarkRun> &a,
                    const std::vector<BenchmarkRun> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].exec.retired, b[i].exec.retired);
        EXPECT_EQ(a[i].exec.predicted, b[i].exec.predicted);
        ASSERT_EQ(a[i].predictors.size(), b[i].predictors.size());
        for (size_t p = 0; p < a[i].predictors.size(); ++p) {
            EXPECT_EQ(a[i].predictors[p].first,
                      b[i].predictors[p].first);
            const auto &sa = a[i].predictors[p].second;
            const auto &sb = b[i].predictors[p].second;
            EXPECT_EQ(sa.total(), sb.total());
            EXPECT_EQ(sa.predicted(), sb.predicted());
            EXPECT_EQ(sa.correct(), sb.correct());
            for (int c = 0; c < isa::numCategories; ++c) {
                const auto cat = static_cast<isa::Category>(c);
                EXPECT_EQ(sa.total(cat), sb.total(cat));
                EXPECT_EQ(sa.predicted(cat), sb.predicted(cat));
                EXPECT_EQ(sa.correct(cat), sb.correct(cat));
            }
        }
    }
}

TEST(CellScheduler, DedupsIdenticalSuitesAcrossExperiments)
{
    ExperimentConfig config;
    CellScheduler scheduler(config);

    // Two "experiments" requesting the same bank over the full suite
    // (as figures 3 through 7 do): seven unique cells, not fourteen.
    const auto first = scheduler.suite(smokeOptions());
    const auto second = scheduler.suite(smokeOptions());
    EXPECT_EQ(scheduler.uniqueCells(), 7u);
    EXPECT_EQ(scheduler.requestedCells(), 14u);
    expectIdenticalRuns(first, second);
}

TEST(CellScheduler, PrefetchDeclaresTheSameCellsSuiteUses)
{
    ExperimentConfig config;
    CellScheduler scheduler(config);
    scheduler.prefetch(smokeOptions());
    const size_t declared = scheduler.uniqueCells();
    EXPECT_EQ(declared, 7u);
    scheduler.suite(smokeOptions());
    EXPECT_EQ(scheduler.uniqueCells(), declared);
}

TEST(CellScheduler, ResultsAreIdenticalAcrossWorkerCounts)
{
    SuiteOptions narrowed = smokeOptions();
    narrowed.benchmarks = {"compress", "gcc", "xlisp"};

    ExperimentConfig config;
    CellScheduler serial(config, 1);
    CellScheduler parallel(config, 4);

    const auto serial_runs = serial.suite(narrowed);
    const auto parallel_runs = parallel.suite(narrowed);
    expectIdenticalRuns(serial_runs, parallel_runs);

    // And identical to the legacy pool in suite.cc running live.
    SuiteOptions legacy = narrowed;
    legacy.parallelism = 1;
    expectIdenticalRuns(serial_runs, runSuite(legacy));
}

TEST(CellScheduler, CellIdsAreStableAndSharedOnDedup)
{
    ExperimentConfig config;
    CellScheduler scheduler(config);
    SuiteOptions narrowed = smokeOptions();
    narrowed.benchmarks = {"compress", "gcc"};

    std::vector<size_t> first_ids, second_ids;
    scheduler.suite(narrowed, &first_ids);
    scheduler.suite(narrowed, &second_ids);
    EXPECT_EQ(first_ids, (std::vector<size_t>{0, 1}));
    EXPECT_EQ(second_ids, first_ids);

    const auto records = scheduler.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].workload, "compress");
    EXPECT_EQ(records[1].workload, "gcc");
    for (const auto &record : records) {
        EXPECT_TRUE(record.done);
        EXPECT_GT(record.wallMs, 0.0);
        EXPECT_EQ(record.predictors.size(), 5u);
        EXPECT_GT(record.predictors[0].second.total(), 0u);
    }
}

TEST(CellScheduler, WorkloadErrorsPropagateToEveryRequester)
{
    ExperimentConfig config;
    CellScheduler scheduler(config, 2);
    SuiteOptions bad = smokeOptions();
    bad.benchmarks = {"compress", "no-such-workload"};
    EXPECT_THROW(scheduler.suite(bad), std::exception);
    // The shared failing cell throws again for a second requester.
    EXPECT_THROW(scheduler.suite(bad), std::exception);
}

TEST(CellScheduler, BadPredictorSpecPropagates)
{
    ExperimentConfig config;
    CellScheduler scheduler(config);
    SuiteOptions bad;
    bad.predictors = {"not-a-spec"};
    bad.benchmarks = {"compress"};
    bad.config.scale = dryRunScale;
    EXPECT_THROW(scheduler.suite(bad), std::invalid_argument);
}

/**
 * The acceptance bar of the refactor: a multi-experiment run through
 * the cell scheduler — here the figure3 bank requested by two
 * consumers, as `vpexp figure3 figure4` would — must be no slower
 * than the legacy layout, where each binary ran its own runSuite over
 * live VM execution. The scheduler does strictly less work (one VM
 * pass per workload via the trace cache, one bank evaluation per
 * unique cell), so even on a noisy host the margin is ~2x; a generous
 * 1.25x fudge keeps the assertion robust while still catching any
 * regression that reruns shared cells.
 */
TEST(CellScheduler, MultiExperimentRunBeatsLegacySerialBinaries)
{
    SuiteOptions legacy = smokeOptions();
    legacy.parallelism = 1;     // this host has few cores; compare
                                // like with like, serial vs serial
    std::vector<BenchmarkRun> legacy_first, legacy_second;
    const auto run_legacy = [&] {
        const auto start = Clock::now();
        legacy_first = runSuite(legacy);
        legacy_second = runSuite(legacy);
        return msSince(start);
    };

    ExperimentConfig config;
    std::vector<BenchmarkRun> sched_first, sched_second;
    size_t unique = 0, requested = 0;
    const auto run_scheduled = [&] {
        const auto start = Clock::now();
        CellScheduler scheduler(config, 1);
        sched_first = scheduler.suite(smokeOptions());
        sched_second = scheduler.suite(smokeOptions());
        unique = scheduler.uniqueCells();
        requested = scheduler.requestedCells();
        return msSince(start);
    };

    // Best of three reps per side, interleaved and alternating which
    // side goes first, so load from other tests lands on both alike.
    double legacy_ms = 1e300, sched_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        if (rep % 2 == 0) {
            legacy_ms = std::min(legacy_ms, run_legacy());
            sched_ms = std::min(sched_ms, run_scheduled());
        } else {
            sched_ms = std::min(sched_ms, run_scheduled());
            legacy_ms = std::min(legacy_ms, run_legacy());
        }
    }

    expectIdenticalRuns(legacy_first, sched_first);
    expectIdenticalRuns(legacy_second, sched_second);
    EXPECT_EQ(unique, 7u);

    std::printf("[ scheduler] legacy 2x runSuite %.0f ms, "
                "cell-scheduled %.0f ms (dedup %zu of %zu requests)\n",
                legacy_ms, sched_ms, requested - unique, requested);
    RecordProperty("legacy_ms", static_cast<int>(legacy_ms));
    RecordProperty("scheduler_ms", static_cast<int>(sched_ms));
    EXPECT_LE(sched_ms, legacy_ms * 1.25);
}

TEST(CellScheduler, RecordsCarryQueuedMsAndCounters)
{
    // A private trace cache: the per-process default may already hold
    // these recordings when earlier cases ran in the same process, and
    // this case pins that each cell recorded its own trace.
    const ScratchDir cache;
    ExperimentConfig config;
    config.traceCacheDir = cache.path().string();
    CellScheduler scheduler(config, 2);
    SuiteOptions narrowed = smokeOptions();
    narrowed.benchmarks = {"compress", "gcc"};
    scheduler.suite(narrowed);

    for (const auto &record : scheduler.records()) {
        ASSERT_TRUE(record.done);
        EXPECT_GE(record.queuedMs, 0.0);
        // Every cell's registry saw the replay-layer counters, and
        // they reconcile with the cell's own event count.
        EXPECT_EQ(record.counters.counter("replay.events"),
                  record.events);
        EXPECT_GT(record.counters.counter("replay.batches"), 0u);
        EXPECT_EQ(record.counters.counter("trace_cache.record"), 1u);
        const auto hist =
                record.counters.histograms.find("replay.batch_fill");
        ASSERT_NE(hist, record.counters.histograms.end());
        EXPECT_GT(hist->second.count, 0u);
    }

    const auto progress = scheduler.progress();
    EXPECT_EQ(progress.cellsDone, 2u);
    EXPECT_EQ(progress.cellsTotal, 2u);
    EXPECT_EQ(progress.cellsDone, scheduler.uniqueCells());
}

TEST(CellScheduler, WindowedTelemetryNeverChangesTheStats)
{
    SuiteOptions narrowed = smokeOptions();
    narrowed.benchmarks = {"compress"};

    ExperimentConfig plain;
    CellScheduler unwindowed(plain, 1);
    const auto without = unwindowed.suite(narrowed);

    ExperimentConfig windowed_config;
    windowed_config.windowEvents = 4096;
    CellScheduler windowed(windowed_config, 1);
    const auto with = windowed.suite(narrowed);

    // Windowing only changes batch geometry, never the per-event
    // protocol: statistics must stay byte-identical.
    expectIdenticalRuns(without, with);

    // And the series itself reconciles: windows close at exact
    // multiples, per-member deltas sum to the cumulative totals.
    const auto records = windowed.records();
    ASSERT_EQ(records.size(), 1u);
    const auto &windows = records[0].windows;
    EXPECT_EQ(windows.windowEvents, 4096u);
    ASSERT_FALSE(windows.samples.empty());
    std::vector<uint64_t> eligible(records[0].predictors.size(), 0);
    std::vector<uint64_t> correct(records[0].predictors.size(), 0);
    for (size_t s = 0; s < windows.samples.size(); ++s) {
        const auto &sample = windows.samples[s];
        if (s + 1 < windows.samples.size())
            EXPECT_EQ(sample.endEvent % 4096, 0u);
        ASSERT_EQ(sample.members.size(), eligible.size());
        for (size_t m = 0; m < sample.members.size(); ++m) {
            eligible[m] += sample.members[m].eligible;
            correct[m] += sample.members[m].correct;
        }
    }
    for (size_t m = 0; m < eligible.size(); ++m) {
        EXPECT_EQ(eligible[m], records[0].predictors[m].second.total());
        EXPECT_EQ(correct[m], records[0].predictors[m].second.correct());
    }
}

TEST(NormalizeCellOptions, AppliesDryRunAndCanonicalises)
{
    ExperimentConfig config;
    config.dryRun = true;
    config.traceCacheDir = "/tmp/somewhere";

    SuiteOptions options;
    options.config.scale = 60;
    options.parallelism = 9;
    options.improvementA = 3;       // == improvementB: tracker off
    options.improvementB = 3;

    // A caller-set handle must not leak into the cell (it is not part
    // of cell identity; the scheduler installs its own).
    obs::Registry stray;
    obs::Instrumentation handle(&stray);
    options.instrumentation = &handle;

    const auto cell = normalizeCellOptions(options, config);
    EXPECT_EQ(cell.config.scale, dryRunScale);
    EXPECT_TRUE(cell.traceReplay);
    EXPECT_EQ(cell.traceCacheDir, "/tmp/somewhere");
    EXPECT_EQ(cell.parallelism, 0u);
    EXPECT_EQ(cell.improvementA, 0u);
    EXPECT_EQ(cell.improvementB, 0u);
    EXPECT_EQ(cell.instrumentation, nullptr);

    // Cells adopt the run-wide window.
    ExperimentConfig windowed = config;
    windowed.windowEvents = 4096;
    const auto windowed_cell = normalizeCellOptions(options, windowed);
    EXPECT_EQ(windowed_cell.windowEvents, 4096u);

    // Without dry-run the requested scale survives.
    config.dryRun = false;
    EXPECT_EQ(normalizeCellOptions(options, config).config.scale, 60);
}

} // anonymous namespace
