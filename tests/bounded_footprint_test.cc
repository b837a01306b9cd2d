/**
 * @file
 * Resident-memory footprint of the bounded tables.
 *
 * A bounded table reserves its whole entry budget but commits pages
 * only as a replay first writes them, and reset() hands them back.
 * The capacity sweep's 21 bounded specs reserve hundreds of MB between
 * them (l@1M and s2@1M 56 MB each, fcm3@262144/786432 91 MB), yet
 * building them must cost almost no resident memory, and resetting
 * them after a short replay must return it. Measured from VmRSS in
 * /proc/self/status, so the test runs on Linux only.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "exp/capacity.hh"
#include "exp/spec.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace vp;

#if defined(__linux__)

/** Allowed VmRSS growth, far below the sweep bank's reservation. */
constexpr long kMarginKb = 16 * 1024;

long
vmRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmRSS:") {
            long kb = 0;
            status >> kb;
            return kb;
        }
        status.ignore(4096, '\n');
    }
    return -1;
}

std::vector<std::string>
boundedSweepSpecs()
{
    std::vector<std::string> out;
    for (const auto &spec : exp::capacitySweepSpecs()) {
        if (spec.find('@') != std::string::npos)
            out.push_back(spec);
    }
    return out;
}

std::vector<core::PredictorPtr>
buildAll(const std::vector<std::string> &specs)
{
    std::vector<core::PredictorPtr> out;
    for (const auto &spec : specs)
        out.push_back(exp::parseSpec(spec).build());
    return out;
}

TEST(BoundedFootprint, BuildingTheSweepBankCommitsAlmostNothing)
{
    const auto specs = boundedSweepSpecs();
    ASSERT_EQ(specs.size(), 21u);
    const long before = vmRssKb();
    ASSERT_GT(before, 0);
    const auto bank = buildAll(specs);
    const long after = vmRssKb();
    EXPECT_LT(after - before, kMarginKb)
            << "building " << bank.size() << " bounded specs raised "
            << "VmRSS by " << (after - before) / 1024 << " MB";
}

TEST(BoundedFootprint, ResetAfterAReplayHandsThePagesBack)
{
    workloads::WorkloadConfig config;
    config.scale = 1;
    vm::RecordingSink sink;
    vm::Machine machine;
    machine.setSink(&sink);
    ASSERT_TRUE(machine.run(workloads::allWorkloads()[0].build(config))
                        .ok());
    const size_t n = sink.events.size();
    ASSERT_GT(n, 0u);
    std::vector<uint64_t> pcs(n), values(n);
    for (size_t i = 0; i < n; ++i) {
        pcs[i] = sink.events[i].pc;
        values[i] = sink.events[i].value;
    }
    std::vector<uint64_t> valid(core::bits::words(n));
    std::vector<uint64_t> correct(core::bits::words(n));

    const long before = vmRssKb();
    ASSERT_GT(before, 0);
    auto bank = buildAll(boundedSweepSpecs());
    for (auto &predictor : bank) {
        predictor->evalBatch(pcs.data(), values.data(), n, valid.data(),
                             correct.data());
        EXPECT_GT(predictor->tableEntries(), 0u) << predictor->name();
    }
    const long replayed = vmRssKb();
    for (auto &predictor : bank) {
        predictor->reset();
        EXPECT_EQ(predictor->tableEntries(), 0u) << predictor->name();
    }
    const long reset = vmRssKb();
    EXPECT_LT(reset - before, kMarginKb)
            << "after a " << n << "-event replay (VmRSS +"
            << (replayed - before) / 1024 << " MB) reset() left +"
            << (reset - before) / 1024 << " MB resident";
}

#endif // __linux__

} // namespace
