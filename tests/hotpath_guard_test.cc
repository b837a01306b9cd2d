/**
 * @file
 * Performance regression guard for the batched replay hot path.
 *
 * The batched path exists to be faster than the per-event protocol;
 * this guard fails the build if it ever *regresses* past it. The bar
 * is deliberately loose — batched must stay within 1.25x of scalar
 * ns/event at smoke scale, best of five interleaved runs each (ctest
 * runs these tests under a `perf` RESOURCE_LOCK) — because unit
 * tests run under sanitizers and coverage instrumentation too, where
 * absolute speedups compress. BENCH_hotpath.json (bench/
 * perf_predictors) carries the real before/after numbers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "exp/suite.hh"
#include "obs/instrumentation.hh"
#include "sim/driver.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace vp;
using Clock = std::chrono::steady_clock;

sim::PredictorBank
makeBank()
{
    sim::PredictorBank bank;
    bank.add(exp::makePredictor("l"));
    bank.add(exp::makePredictor("s2"));
    bank.add(exp::makePredictor("fcm3"));
    return bank;
}

/** Timed runs per side of each A/B comparison. */
constexpr int kRuns = 5;

/** Wall seconds of one call of @p body. */
template <typename Body>
double
timed(Body &&body)
{
    const auto start = Clock::now();
    body();
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Best-of-@p runs wall time of @p a and of @p b, in seconds. The runs
 * interleave, alternating which side goes first (a b, b a, a b, ...),
 * so a burst of load from other tests or tenants lands on both sides
 * alike instead of on whichever side happened to be running.
 */
template <typename A, typename B>
std::pair<double, double>
interleavedBestOf(int runs, A &&a, B &&b)
{
    double bestA = 1e300;
    double bestB = 1e300;
    for (int r = 0; r < runs; ++r) {
        if (r % 2 == 0) {
            bestA = std::min(bestA, timed(a));
            bestB = std::min(bestB, timed(b));
        } else {
            bestB = std::min(bestB, timed(b));
            bestA = std::min(bestA, timed(a));
        }
    }
    return {bestA, bestB};
}

TEST(HotpathGuard, BatchedReplayDoesNotRegressPastScalar)
{
    // One combined smoke-scale trace: enough events for a stable
    // timing without making the unit shard slow.
    workloads::WorkloadConfig config;
    config.scale = 5;
    std::vector<vm::TraceEvent> events;
    for (const auto &info : workloads::allWorkloads()) {
        vm::RecordingSink sink;
        vm::Machine machine;
        machine.setSink(&sink);
        ASSERT_TRUE(machine.run(info.build(config)).ok()) << info.name;
        events.insert(events.end(), sink.events.begin(),
                      sink.events.end());
    }
    ASSERT_FALSE(events.empty());

    // Warm-up pass keeps first-touch page faults out of both timings.
    {
        auto bank = makeBank();
        sim::replayTrace(events, bank);
    }

    const auto [scalar, batched] = interleavedBestOf(
            kRuns,
            [&] {
                auto bank = makeBank();
                sim::replayTrace(events, bank);
            },
            [&] {
                auto bank = makeBank();
                sim::replayTraceBatched(events, bank);
            });

    const double ns_per_event = 1e9 / static_cast<double>(events.size());
    EXPECT_LE(batched, scalar * 1.25)
            << "batched replay regressed past the scalar path: "
            << batched * ns_per_event << " ns/event batched vs "
            << scalar * ns_per_event << " ns/event scalar over "
            << events.size() << " events";
}

TEST(HotpathGuard, InstrumentationStaysOffTheHotPath)
{
    // The observability contract: counters are pulled at cell
    // boundaries, never pushed per event, so an instrumented replay
    // must produce byte-identical statistics and stay within a loose
    // wall-clock bar of the uninstrumented one (per-span counter work
    // only — a handful of map lookups per ~4K-event batch).
    workloads::WorkloadConfig config;
    config.scale = 5;
    std::vector<vm::TraceEvent> events;
    for (const auto &info : workloads::allWorkloads()) {
        vm::RecordingSink sink;
        vm::Machine machine;
        machine.setSink(&sink);
        ASSERT_TRUE(machine.run(info.build(config)).ok()) << info.name;
        events.insert(events.end(), sink.events.begin(),
                      sink.events.end());
    }
    ASSERT_FALSE(events.empty());

    {   // Warm-up pass (first-touch page faults).
        auto bank = makeBank();
        vm::VectorBatchSource source(events);
        sim::replayTrace(source, bank);
    }

    std::vector<core::PredictionStats> statsOff, statsOn;
    obs::Registry registry;
    obs::Instrumentation instr(&registry);
    const auto [off, on] = interleavedBestOf(
            kRuns,
            [&] {
                auto bank = makeBank();
                vm::VectorBatchSource source(events);
                sim::replayTrace(source, bank);
                statsOff.clear();
                for (size_t m = 0; m < bank.size(); ++m)
                    statsOff.push_back(bank.member(m).stats);
            },
            [&] {
                auto bank = makeBank();
                vm::VectorBatchSource source(events);
                sim::replayTrace(source, bank, &instr);
                statsOn.clear();
                for (size_t m = 0; m < bank.size(); ++m)
                    statsOn.push_back(bank.member(m).stats);
            });

    ASSERT_EQ(statsOff.size(), statsOn.size());
    for (size_t m = 0; m < statsOff.size(); ++m) {
        EXPECT_EQ(statsOff[m].total(), statsOn[m].total());
        EXPECT_EQ(statsOff[m].predicted(), statsOn[m].predicted());
        EXPECT_EQ(statsOff[m].correct(), statsOn[m].correct());
    }

    // The counters themselves must be exact, not just cheap.
    const obs::Snapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("replay.events"),
              kRuns * static_cast<uint64_t>(events.size()));

    const double ns_per_event = 1e9 / static_cast<double>(events.size());
    EXPECT_LE(on, off * 1.25)
            << "instrumented replay regressed past instrumented-off: "
            << on * ns_per_event << " ns/event on vs "
            << off * ns_per_event << " ns/event off over "
            << events.size() << " events";
}

} // namespace
