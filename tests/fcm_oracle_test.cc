/**
 * @file
 * Differential property test: the unbounded fcm predictor against a
 * deliberately naive oracle (tests/oracle/fcm_oracle.hh).
 *
 * Every unbounded fcm spec of the spec-name golden, plus orders 0-8 in
 * every variant (lazy exclusion, -full, -pure, -sat), runs over
 * generated traces shaped to stress the follower structures: a PC
 * with thousands of distinct values, phase changes, incompressible
 * values, many PCs with one value each, and counts driven past the
 * -sat ceiling so halvings prune long follower lists. Through the
 * scalar predict()/update() pair and through evalBatch() at ragged
 * batch sizes, every event's valid and correct bits must equal the
 * oracle's, and so must the number of contexts.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/confidence.hh"
#include "exp/spec.hh"
#include "oracle/fcm_oracle.hh"

namespace {

using namespace vp;

struct Event
{
    uint64_t pc;
    uint64_t value;
};

/** Deterministic 64-bit generator (splitmix64). */
class Random
{
  public:
    explicit Random(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state_;
};

/** One PC whose values are mostly new: thousands of followers on its
 *  low-order contexts, with a few recurring values among them. */
std::vector<Event>
diverseTrace()
{
    Random random(1);
    std::vector<Event> events;
    for (int i = 0; i < 6000; ++i)
        events.push_back({0x40, random.below(4) == 0 ? random.below(5)
                                                     : random.below(3000)});
    return events;
}

/** Repeating patterns that change period and content mid-trace, on
 *  two interleaved PCs. */
std::vector<Event>
phaseTrace()
{
    std::vector<Event> events;
    const uint64_t periods[] = {3, 7, 13, 7, 2};
    for (int phase = 0; phase < 5; ++phase) {
        for (int i = 0; i < 800; ++i) {
            events.push_back({0x10, 100 * phase + i % periods[phase]});
            const int value = i % 5 == 0 ? phase : i;
            events.push_back({0x14, static_cast<uint64_t>(value)});
        }
    }
    return events;
}

/** Random 64-bit values on a handful of PCs: nothing repeats. */
std::vector<Event>
incompressibleTrace()
{
    Random random(2);
    std::vector<Event> events;
    for (int i = 0; i < 4000; ++i)
        events.push_back({0x100 + 4 * random.below(6), random.next()});
    return events;
}

/** Thousands of PCs, each producing its own single value. */
std::vector<Event>
manyPcTrace()
{
    Random random(3);
    std::vector<Event> events;
    for (int i = 0; i < 8000; ++i) {
        const uint64_t pc = random.below(2500);
        events.push_back({pc << 2, pc * 7});
    }
    return events;
}

/** A dominant value between noise: its count crosses any ceiling
 *  again and again, and each halving prunes a long list of noise
 *  followers; then a run of one value, then a new dominant value.
 *  Before all that, a second PC halves a lone follower's count and
 *  then sees a rival that only the halved count lets win early. */
std::vector<Event>
saturatingTrace()
{
    Random random(4);
    std::vector<Event> events;
    for (int i = 0; i < 60; ++i)
        events.push_back({0x204, i < 30 ? 1u : 2u});
    for (int i = 0; i < 3000; ++i) {
        events.push_back({0x200, 0});
        events.push_back({0x200, random.below(400)});
    }
    for (int i = 0; i < 300; ++i)
        events.push_back({0x200, 9});
    for (int i = 0; i < 3000; ++i)
        events.push_back({0x200, i % 3 == 0 ? random.below(60) : 1});
    return events;
}

/** All of the shapes above, interleaved event by event. */
std::vector<Event>
mixedTrace()
{
    const std::vector<std::vector<Event>> parts = {
        diverseTrace(), phaseTrace(), incompressibleTrace(),
        manyPcTrace(), saturatingTrace()};
    std::vector<Event> events;
    for (size_t i = 0;; ++i) {
        bool any = false;
        for (const auto &part : parts) {
            if (i < part.size()) {
                events.push_back(part[i]);
                any = true;
            }
        }
        if (!any)
            return events;
    }
}

/** The unbounded fcm specs: those of the golden, and orders 0-8 in
 *  every variant. */
std::vector<exp::PredictorSpec>
specsUnderTest()
{
    std::vector<exp::PredictorSpec> specs;
    std::ifstream names(std::string(VP_GOLDEN_DIR) + "/spec_names.txt");
    EXPECT_TRUE(names.good()) << "missing golden under " << VP_GOLDEN_DIR;
    for (std::string name; std::getline(names, name);) {
        const auto spec = exp::parseSpec(name);
        if (spec.family == exp::SpecFamily::Fcm && !spec.table)
            specs.push_back(spec);
    }
    EXPECT_GE(specs.size(), 12u);
    for (int order = 0; order <= 8; ++order) {
        for (const char *variant : {"", "-full", "-pure", "-sat"})
            specs.push_back(exp::parseSpec("fcm" + std::to_string(order) +
                                           variant));
    }
    return specs;
}

core::PredictorPtr
makeOracle(const exp::PredictorSpec &spec)
{
    core::PredictorPtr oracle =
            std::make_unique<oracle::FcmOracle>(spec.fcm);
    if (spec.confidence) {
        oracle = std::make_unique<core::ConfidencePredictor>(
                std::move(oracle), *spec.confidence);
    }
    return oracle;
}

/** Per-event valid and correct bits, two per event. */
using Outcomes = std::vector<bool>;

Outcomes
runScalar(core::ValuePredictor &pred, const std::vector<Event> &events)
{
    Outcomes out;
    for (const Event &event : events) {
        const core::Prediction p = pred.predict(event.pc);
        out.push_back(p.valid);
        out.push_back(p.valid && p.value == event.value);
        pred.update(event.pc, event.value);
    }
    return out;
}

Outcomes
runBatched(core::ValuePredictor &pred, const std::vector<Event> &events)
{
    // Ragged batch sizes straddle the 64-bit words of the bit rows.
    const size_t sizes[] = {1, 7, 64, 129, 1000};
    Outcomes out;
    std::vector<uint64_t> pcs, values, valid, correct;
    for (size_t at = 0, k = 0; at < events.size(); ++k) {
        const size_t n = std::min(sizes[k % 5], events.size() - at);
        pcs.clear();
        values.clear();
        for (size_t i = at; i < at + n; ++i) {
            pcs.push_back(events[i].pc);
            values.push_back(events[i].value);
        }
        valid.assign(core::bits::words(n), 0);
        correct.assign(core::bits::words(n), 0);
        pred.evalBatch(pcs.data(), values.data(), n, valid.data(),
                       correct.data());
        for (size_t i = 0; i < n; ++i) {
            out.push_back(core::bits::test(valid.data(), i));
            out.push_back(core::bits::test(correct.data(), i));
        }
        at += n;
    }
    return out;
}

/** Index of the first event whose bits differ, or -1. */
long
firstDifference(const Outcomes &a, const Outcomes &b)
{
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a[i] != b[i])
            return static_cast<long>(i / 2);
    }
    return a.size() == b.size() ? -1 : static_cast<long>(a.size() / 2);
}

void
expectMatchesOracle(const std::vector<Event> &events)
{
    for (const auto &spec : specsUnderTest()) {
        SCOPED_TRACE(spec.canonicalName());
        auto oracle = makeOracle(spec);
        const Outcomes expected = runScalar(*oracle, events);

        auto scalar = spec.build();
        EXPECT_EQ(firstDifference(runScalar(*scalar, events), expected), -1)
                << "scalar path: first differing event";
        EXPECT_EQ(scalar->tableEntries(), oracle->tableEntries());

        auto batched = spec.build();
        EXPECT_EQ(firstDifference(runBatched(*batched, events), expected),
                  -1)
                << "batched path: first differing event";
        EXPECT_EQ(batched->tableEntries(), oracle->tableEntries());
    }
}

TEST(FcmOracle, OnePcWithThousandsOfValues)
{
    expectMatchesOracle(diverseTrace());
}

TEST(FcmOracle, PhaseChanges) { expectMatchesOracle(phaseTrace()); }

TEST(FcmOracle, IncompressibleValues)
{
    expectMatchesOracle(incompressibleTrace());
}

TEST(FcmOracle, ManyPcsWithOneValue) { expectMatchesOracle(manyPcTrace()); }

TEST(FcmOracle, HalvingsPruneLongFollowerLists)
{
    expectMatchesOracle(saturatingTrace());
}

TEST(FcmOracle, AllShapesInterleaved) { expectMatchesOracle(mixedTrace()); }

} // namespace
