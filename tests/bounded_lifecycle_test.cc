/**
 * @file
 * Lifecycle differential test for BoundedTable: a table driven
 * through insert -> evict -> clear() -> refill must be
 * indistinguishable from a freshly built one fed only the refill.
 *
 * Entries are constructed on the first fill of a slot, reset on
 * eviction and destroyed by clear() and the destructor, and clear()
 * hands the slot arrays' pages back instead of overwriting them. Each
 * case compares per-event outcomes and every telemetry counter
 * against a fresh table, for all three replacement policies at 4-way,
 * 16-way and fully associative geometries. FcmFollowers entries spill
 * their follower cells to the heap (maxFollowers 0 grows without
 * bound, 4 spills past the two inline cells), so under the sanitizer
 * build LeakSanitizer fails the binary if clear() or the destructor
 * skips an entry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "core/bounded.hh"
#include "core/bounded_table.hh"
#include "core/fcm.hh"

namespace {

using namespace vp;
using namespace vp::core;

struct Geometry
{
    size_t ways;
    Replacement policy;
};

std::vector<Geometry>
geometries()
{
    std::vector<Geometry> out;
    for (const size_t ways : {size_t{4}, size_t{16}, size_t{0}}) {
        for (const auto policy : {Replacement::Lru, Replacement::Fifo,
                                  Replacement::Random})
            out.push_back({ways, policy});
    }
    return out;
}

std::string
describe(const Geometry &g)
{
    static const char *const names[] = {"lru", "random", "fifo"};
    std::string s = g.ways == 0 ? "fa" : "x" + std::to_string(g.ways);
    s += " ";
    s += names[static_cast<int>(g.policy)];
    return s;
}

BoundedTableConfig
tableConfig(size_t entries, const Geometry &g)
{
    BoundedTableConfig config;
    config.entries = entries;
    config.ways = g.ways;
    config.replacement = g.policy;
    return config;
}

/** Every telemetry field, comparable in one EXPECT_EQ. */
auto
fields(const BoundedTableTelemetry &t)
{
    return std::make_tuple(t.capacity, t.live, t.reservedBytes,
                           t.evictions, t.aliasedPeeks, t.aliasedTouches,
                           t.aliasConstructive, t.aliasDestructive,
                           t.probes, t.probeDepth, t.hintedTouches,
                           t.hintedTouchHits);
}

struct Event
{
    uint64_t pc;
    uint64_t value;
};

/**
 * Deterministic stream over @p pcs PCs, far more than the tables
 * below hold, so every geometry evicts. A third of the PCs produce a
 * constant, a third a stride, and a third draw from a handful of
 * values, so fcm contexts collect several followers each.
 */
std::vector<Event>
stream(uint64_t seed, size_t events, uint64_t pcs)
{
    std::vector<Event> out;
    uint64_t x = seed | 1;
    std::vector<uint64_t> seen(pcs, 0);
    for (size_t i = 0; i < events; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t pc = 0x1000 + 4 * (x % pcs);
        const uint64_t n = seen[x % pcs]++;
        uint64_t value = pc * 1000;
        if (pc % 3 == 1)
            value += 8 * n;
        else if (pc % 3 == 2)
            value += (x >> 20) % 7;
        out.push_back({pc, value});
    }
    return out;
}

/** Test-side CounterSink: every emitted name with its value. */
class MapSink : public CounterSink
{
  public:
    void counter(const std::string &name, uint64_t v) override
    {
        values["c " + name] += v;
    }
    void gauge(const std::string &name, uint64_t v) override
    {
        values["g " + name] = v;
    }
    void distribution(const std::string &name, uint64_t v,
                      uint64_t count) override
    {
        values["d " + name + " " + std::to_string(v)] += count;
    }

    std::map<std::string, uint64_t> values;
};

std::map<std::string, uint64_t>
countersOf(const ValuePredictor &predictor)
{
    MapSink sink;
    predictor.collectCounters(sink);
    return sink.values;
}

/** Per-event valid and correct bits of one batched replay. */
struct Outcome
{
    std::vector<uint64_t> valid;
    std::vector<uint64_t> correct;

    bool operator==(const Outcome &) const = default;
};

Outcome
replay(ValuePredictor &predictor, const std::vector<Event> &events)
{
    std::vector<uint64_t> pcs, values;
    for (const auto &e : events) {
        pcs.push_back(e.pc);
        values.push_back(e.value);
    }
    Outcome out;
    out.valid.assign(bits::words(events.size()), 0);
    out.correct.assign(bits::words(events.size()), 0);
    predictor.evalBatch(pcs.data(), values.data(), events.size(),
                        out.valid.data(), out.correct.data());
    return out;
}

/** The scalar predict-then-update protocol, for the first fill. */
void
replayScalar(ValuePredictor &predictor, const std::vector<Event> &events)
{
    for (const auto &e : events) {
        (void)predictor.predict(e.pc);
        predictor.update(e.pc, e.value);
    }
}

/**
 * Fill @p used (scalar path, evicting), reset it, then refill it
 * (batched path) and compare outcomes and counters with @p fresh fed
 * only the refill. Reset twice to check a reset of a reset table.
 */
void
expectResetIsFresh(ValuePredictor &used, ValuePredictor &fresh,
                   const std::string &evictionCounter)
{
    const auto fill = stream(11, 6000, 400);
    const auto refill = stream(29, 6000, 400);

    const auto empty = countersOf(fresh);
    replayScalar(used, fill);
    ASSERT_GT(countersOf(used)["c " + evictionCounter], 0u)
            << "the fill must evict";
    used.reset();
    EXPECT_EQ(countersOf(used), empty);
    EXPECT_EQ(used.tableEntries(), 0u);

    const Outcome expected = replay(fresh, refill);
    const Outcome refilled = replay(used, refill);
    EXPECT_EQ(refilled, expected);
    EXPECT_EQ(countersOf(used), countersOf(fresh));
    EXPECT_EQ(used.tableEntries(), fresh.tableEntries());

    used.reset();
    used.reset();
    EXPECT_EQ(countersOf(used), empty);
}

TEST(BoundedLifecycle, LastValueResetMatchesFreshTable)
{
    for (const auto &g : geometries()) {
        SCOPED_TRACE(describe(g));
        BoundedLastValuePredictor used({}, tableConfig(64, g));
        BoundedLastValuePredictor fresh({}, tableConfig(64, g));
        expectResetIsFresh(used, fresh, "lv.evictions");
    }
}

TEST(BoundedLifecycle, StrideResetMatchesFreshTable)
{
    for (const auto &g : geometries()) {
        SCOPED_TRACE(describe(g));
        BoundedStridePredictor used({}, tableConfig(64, g));
        BoundedStridePredictor fresh({}, tableConfig(64, g));
        expectResetIsFresh(used, fresh, "stride.evictions");
    }
}

TEST(BoundedLifecycle, FcmResetMatchesFreshTableWithSpilledFollowers)
{
    for (const uint32_t max_followers : {0u, 4u}) {
        for (const auto &g : geometries()) {
            SCOPED_TRACE(describe(g) + " maxFollowers " +
                         std::to_string(max_followers));
            BoundedFcmConfig config;
            config.fcm.order = 2;
            config.vht = tableConfig(64, g);
            config.vpt = tableConfig(256, g);
            config.maxFollowers = max_followers;
            BoundedFcmPredictor used(config);
            BoundedFcmPredictor fresh(config);
            expectResetIsFresh(used, fresh, "fcm.vpt.evictions");
        }
    }
}

/**
 * The table alone, with FcmFollowers entries bumped directly: per
 * event, whether the touch inserted and which follower is best, then
 * every telemetry field.
 */
std::vector<std::pair<bool, uint64_t>>
driveFollowers(BoundedTable<FcmFollowers> &table,
               const std::vector<Event> &events, uint32_t max_followers)
{
    std::vector<std::pair<bool, uint64_t>> out;
    uint64_t seq = 0;
    for (const auto &e : events) {
        bool inserted = false;
        FcmFollowers &followers = table.touch(e.pc, inserted);
        followers.bump(e.value, ++seq, 0, max_followers);
        const auto *best = followers.best();
        out.emplace_back(inserted, best != nullptr ? best->value : 0);
    }
    return out;
}

TEST(BoundedLifecycle, FollowerTableClearMatchesFreshTable)
{
    // Values drawn per key from a wide range: most entries spill.
    auto diverse = [](uint64_t seed) {
        auto events = stream(seed, 8000, 300);
        for (auto &e : events)
            e.value = e.value % 13;
        return events;
    };
    for (const uint32_t max_followers : {0u, 4u}) {
        for (const auto &g : geometries()) {
            SCOPED_TRACE(describe(g) + " maxFollowers " +
                         std::to_string(max_followers));
            const auto config = tableConfig(128, g);
            BoundedTable<FcmFollowers> used(config);
            BoundedTable<FcmFollowers> fresh(config);
            const auto empty = fields(fresh.telemetry());

            driveFollowers(used, diverse(5), max_followers);
            ASSERT_GT(used.evictions(), 0u);
            used.clear();
            EXPECT_EQ(fields(used.telemetry()), empty);

            EXPECT_EQ(driveFollowers(used, diverse(7), max_followers),
                      driveFollowers(fresh, diverse(7), max_followers));
            EXPECT_EQ(fields(used.telemetry()),
                      fields(fresh.telemetry()));
        }
    }
}

TEST(BoundedLifecycle, BudgetWhoseBytesWrapAroundIsRefused)
{
    BoundedTableConfig config;
    config.entries = SIZE_MAX / 2;
    config.ways = 1;
    EXPECT_THROW(BoundedTable<LvEntry>{config}, std::bad_alloc);
}

TEST(BoundedLifecycle, ReservedBytesCountEveryArrayTheBudgetSpans)
{
    // key + valid flag + entry, plus an age stamp except under Random.
    const size_t slot = sizeof(uint64_t) + 1 + sizeof(FcmFollowers);
    for (const auto &g : geometries()) {
        SCOPED_TRACE(describe(g));
        BoundedTable<FcmFollowers> table(tableConfig(64, g));
        const size_t stamp =
                g.policy == Replacement::Random ? 0 : sizeof(uint64_t);
        EXPECT_EQ(table.telemetry().reservedBytes, 64 * (slot + stamp));
    }
}

} // namespace
