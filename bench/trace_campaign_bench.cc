/**
 * @file
 * Campaign-scale trace bench, machine-readable: VPT1 vs VPT2 on-disk
 * size for every workload trace — the compression claim of the
 * blocked deflate format.
 *
 * No google-benchmark dependency: plain timing loops writing one JSON
 * document, the same artifact shape CI uploads for the hot-path bench
 * (BENCH_hotpath.json). The committed repo-root BENCH_campaign.json
 * is a snapshot of an earlier version of this program's output, which
 * also timed a since-removed region-parallel replay.
 *
 * Usage: trace_campaign_bench [--scale N] [--out FILE]
 *   --scale N    workload scale percent (default 5, the smoke scale)
 *   --out FILE   write JSON there instead of BENCH_campaign.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "vm/machine.hh"
#include "vm/trace_file.hh"
#include "workloads/workload.hh"

using namespace vp;

namespace {

struct SizeRow
{
    std::string workload;
    uint64_t events = 0;
    size_t vpt1Bytes = 0;
    size_t vpt2Bytes = 0;
};

/** Record one workload's trace and serialize it in both formats. */
SizeRow
measureSizes(const workloads::WorkloadInfo &info,
             const workloads::WorkloadConfig &config)
{
    vm::RecordingSink recording;
    vm::Machine machine;
    machine.setSink(&recording);
    machine.run(info.build(config));

    SizeRow row;
    row.workload = info.name;
    row.events = recording.events.size();

    std::ostringstream v1(std::ios::binary);
    vm::TraceWriter w1(v1);
    for (const auto &event : recording.events)
        w1.onValue(event);
    w1.finish();
    row.vpt1Bytes = v1.str().size();

    std::ostringstream v2(std::ios::binary);
    vm::Vpt2Writer w2(v2);
    for (const auto &event : recording.events)
        w2.onValue(event);
    w2.finish();
    row.vpt2Bytes = v2.str().size();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_campaign.json";
    workloads::WorkloadConfig config;
    config.scale = 5;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            config.scale = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: trace_campaign_bench [--scale N] "
                         "[--out FILE]\n");
            return 2;
        }
    }

    // ---- format sizes, all seven workloads -------------------------
    std::vector<SizeRow> sizes;
    for (const auto &info : workloads::allWorkloads()) {
        sizes.push_back(measureSizes(info, config));
        std::fprintf(stderr, "%-9s %8llu events  vpt1 %8zu  vpt2 %8zu "
                             "(%.2fx)\n",
                     sizes.back().workload.c_str(),
                     static_cast<unsigned long long>(sizes.back().events),
                     sizes.back().vpt1Bytes, sizes.back().vpt2Bytes,
                     static_cast<double>(sizes.back().vpt1Bytes) /
                             sizes.back().vpt2Bytes);
    }

    // ---- JSON artifact ---------------------------------------------
    std::ofstream json(out);
    if (!json) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 1;
    }
    char date[64] = "";
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%FT%T%z", std::localtime(&now));

    json << "{\n  \"context\": {\n"
         << "    \"date\": \"" << date << "\",\n"
         << "    \"scale\": " << config.scale << ",\n"
         << "    \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "    \"zlib\": " << (vm::traceFileZlibAvailable() ? "true"
                                                              : "false")
         << "\n  },\n  \"traces\": [\n";
    for (size_t i = 0; i < sizes.size(); ++i) {
        const auto &row = sizes[i];
        json << "    {\"workload\": \"" << row.workload
             << "\", \"events\": " << row.events
             << ", \"vpt1_bytes\": " << row.vpt1Bytes
             << ", \"vpt2_bytes\": " << row.vpt2Bytes
             << ", \"vpt1_over_vpt2\": "
             << static_cast<double>(row.vpt1Bytes) / row.vpt2Bytes
             << "}" << (i + 1 < sizes.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
}
