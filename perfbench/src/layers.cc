/**
 * @file
 * The decomposed replay of a traced run. The benchmark itself calls
 * each lower layer in turn on the run's workloads, with a span around
 * every call: WorkloadInfo::build, Machine::run into a RecordingSink,
 * writeTraceFileVpt2, then vm::openTrace + ReaderBatchSource::nextBatch
 * feeding sim::PredictorBank::onBatch, per single member and per full
 * bank of the paper grid. Every replay is checked against the
 * reference digests, so the decomposed numbers describe exactly the
 * work the campaign does.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "bench.hh"
#include "exp/capacity.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "vm/machine.hh"
#include "vm/trace_file.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

/** Unbounded families of the paper grid, measured one at a time. */
const std::vector<std::string> kFamilies = {"l", "s2", "fcm1", "fcm2",
                                            "fcm3"};

/** Bounded families at one sweep budget, and their counter prefixes. */
const std::vector<std::pair<std::string, std::string>> kBounded = {
        {"l", "lv."}, {"s2", "stride."}, {"fcm3", "fcm.vpt."}};
constexpr size_t kBoundedEntries = 65536;

class MapSink : public vp::core::CounterSink
{
  public:
    void
    counter(const std::string &name, uint64_t value) override
    {
        values[name] += value;
    }
    void
    gauge(const std::string &name, uint64_t value) override
    {
        values[name] = std::max(values[name], value);
    }
    void distribution(const std::string &, uint64_t, uint64_t) override {}

    std::map<std::string, uint64_t> values;
};

/** One replay of one recorded trace into one bank. */
struct Task
{
    size_t workload = 0;
    std::string kind;               ///< "single", "bounded", "cell", "untracked"
    std::string name;               ///< family or grid entry
    vp::exp::SuiteOptions bank;     ///< specs and trackers
    double replayS = 0.0;           ///< onBatch time
    double decodeS = 0.0;           ///< nextBatch time
    Digests digests;
    std::map<std::string, uint64_t> counters;
    std::string error;
};

void
runTask(Task &task, const std::string &path, Tracer &tracer, uint64_t id)
{
    vp::sim::PredictorBank bank;
    for (const auto &spec : task.bank.predictors)
        bank.add(vp::exp::makePredictor(spec));
    if (task.bank.overlap > 0)
        bank.trackOverlap(task.bank.overlap);
    if (task.bank.improvementA != task.bank.improvementB)
        bank.trackImprovement(task.bank.improvementA,
                              task.bank.improvementB);
    if (task.bank.values)
        bank.trackValues();

    const std::string layer = task.bank.predictors.size() == 1 &&
                                              task.bank.overlap == 0 &&
                                              !task.bank.values
                                      ? "core"
                                      : "sim";
    Scope root(tracer, "replay " + task.kind + " " + task.name, "bench", -1,
               id);
    std::ifstream in(path, std::ios::binary);
    const auto cursor = vp::vm::openTrace(in);
    vp::vm::ReaderBatchSource source(*cursor);
    while (true) {
        Scope decode(tracer, "nextBatch", "trace", root.index(), id);
        const auto t0 = Clock::now();
        const vp::vm::TraceSpan batch = source.nextBatch();
        const auto t1 = Clock::now();
        decode.close();
        task.decodeS += secondsBetween(t0, t1);
        if (batch.empty())
            break;
        Scope replay(tracer, "onBatch", layer, root.index(), id);
        const auto t2 = Clock::now();
        bank.onBatch(batch);
        task.replayS += secondsSince(t2);
    }
    cursor->expectEnd();

    std::vector<vp::core::PredictionStats> stats;
    for (size_t i = 0; i < bank.size(); ++i)
        stats.push_back(bank.member(i).stats);
    task.digests = bankDigests(task.bank.predictors, stats, bank.overlap(),
                               bank.improvement(), bank.values());
    MapSink sink;
    bank.collectCounters(sink);
    task.counters = std::move(sink.values);
}

} // namespace

void
putLowerLayers(int scale, const std::string &workDir,
               const Reference &reference, Metrics &metrics,
               Outcome &outcome, Tracer &tracer, Details &details)
{
    vp::workloads::WorkloadConfig config;
    config.scale = scale;
    const auto &infos = vp::workloads::allWorkloads();
    const size_t w = infos.size();

    // workloads, vm and vm/trace_file, one workload at a time.
    double buildS = 0.0, runS = 0.0, encodeS = 0.0, decodeS = 0.0;
    double events = 0.0, fileBytes = 0.0, rawBytes = 0.0, encBytes = 0.0;
    std::vector<std::string> paths(w);
    std::vector<double> traceEvents(w);
    for (size_t i = 0; i < w; ++i) {
        const auto &info = infos[i];
        Scope build(tracer, "build " + info.name, "workloads", -1, i);
        auto t0 = Clock::now();
        const auto program = info.build(config);
        buildS += secondsSince(t0);
        build.close();

        vp::vm::RecordingSink sink;
        vp::vm::Machine machine;
        machine.setSink(&sink);
        Scope run(tracer, "run " + info.name, "vm", -1, i);
        t0 = Clock::now();
        const auto result = machine.run(program);
        runS += secondsSince(t0);
        run.close();
        if (!result.ok())
            throw std::runtime_error(info.name + " did not halt");
        traceEvents[i] = static_cast<double>(sink.events.size());
        events += traceEvents[i];

        paths[i] = workDir + "/layers-" + info.name + ".vpt";
        Scope encode(tracer, "encode " + info.name, "trace", -1, i);
        t0 = Clock::now();
        vp::vm::writeTraceFileVpt2(paths[i], sink.events);
        encodeS += secondsSince(t0);
        encode.close();
        fileBytes += static_cast<double>(fs::file_size(paths[i]));

        std::ifstream in(paths[i], std::ios::binary);
        const auto cursor = vp::vm::openTrace(in);
        vp::vm::ReaderBatchSource source(*cursor);
        Scope decode(tracer, "decode " + info.name, "trace", -1, i);
        t0 = Clock::now();
        while (!source.nextBatch().empty()) {
        }
        decodeS += secondsSince(t0);
        decode.close();
        const auto io = cursor->ioStats();
        rawBytes += static_cast<double>(io.rawBytes);
        encBytes += static_cast<double>(io.encBytes);
    }
    metrics.put("workloads.build_s", buildS, "s");
    metrics.put("vm.run_s", runS, "s");
    metrics.put("vm.ns_per_event", runS * 1e9 / events, "ns");
    metrics.put("trace.encode_s", encodeS, "s");
    metrics.put("trace.bytes_per_event", fileBytes / events, "B");
    metrics.put("trace.decode_ns_per_event", decodeS * 1e9 / events, "ns");
    metrics.put("trace.deflate_ratio",
                rawBytes > 0.0 ? encBytes / rawBytes : 1.0, "fraction");

    // core and sim: every replay of the decomposition.
    const auto paper = paperGrid(scale);
    std::vector<Task> tasks;
    for (size_t i = 0; i < w; ++i) {
        const auto add = [&](const std::string &kind,
                             const std::string &name,
                             vp::exp::SuiteOptions bank) {
            Task task;
            task.workload = i;
            task.kind = kind;
            task.name = name;
            task.bank = std::move(bank);
            tasks.push_back(std::move(task));
        };
        for (size_t g = 0; g < paper.size(); ++g)
            add("cell", std::to_string(g), paper[g]);
        for (const auto &family : kFamilies) {
            vp::exp::SuiteOptions bank;
            bank.predictors = {family};
            add("single", family, bank);
        }
        for (const auto &[family, prefix] : kBounded) {
            vp::exp::SuiteOptions bank;
            bank.predictors = {
                    vp::exp::boundedSpecFor(family, kBoundedEntries)};
            add("bounded", family, bank);
        }
        // The tracked cells again without their trackers.
        for (size_t g = 1; g <= 2; ++g) {
            vp::exp::SuiteOptions bank;
            bank.predictors = paper[g].predictors;
            add("untracked", std::to_string(g), bank);
        }
    }
    // One replay at a time, so no replay times another's interference.
    for (size_t k = 0; k < tasks.size(); ++k) {
        try {
            runTask(tasks[k], paths[tasks[k].workload], tracer, k);
        } catch (const std::exception &error) {
            tasks[k].error = error.what();
        }
    }
    for (const auto &path : paths)
        fs::remove(path);

    // The decomposed replay must reproduce the reference statistics.
    for (const auto &task : tasks) {
        const std::string &name = infos[task.workload].name;
        if (!task.error.empty()) {
            ++outcome.attempted;
            outcome.fail(name + " replay " + task.kind + " " + task.name +
                         ": " + task.error);
            continue;
        }
        checkCell(reference, name, task.digests, outcome);
    }

    const auto find = [&](size_t i, const std::string &kind,
                          const std::string &name) -> const Task & {
        for (const auto &task : tasks) {
            if (task.workload == i && task.kind == kind && task.name == name)
                return task;
        }
        throw std::logic_error("no task " + kind + " " + name);
    };

    for (const auto &family : kFamilies) {
        double s = 0.0;
        for (size_t i = 0; i < w; ++i)
            s += find(i, "single", family).replayS;
        metrics.put("core." + family + ".ns_per_event", s * 1e9 / events,
                    "ns");
    }
    for (size_t i = 0; i < w; ++i)
        metrics.put("core.fcm3.ns_per_event." + infos[i].name,
                    find(i, "single", "fcm3").replayS * 1e9 / traceEvents[i],
                    "ns");
    for (const auto &[family, prefix] : kBounded) {
        double s = 0.0, probes = 0.0, inserts = 0.0;
        for (size_t i = 0; i < w; ++i) {
            const Task &task = find(i, "bounded", family);
            s += task.replayS;
            const auto value = [&](const std::string &name) {
                const auto it = task.counters.find(prefix + name);
                return it == task.counters.end()
                               ? 0.0
                               : static_cast<double>(it->second);
            };
            probes += value("probes");
            inserts += value("occupancy") + value("evictions");
        }
        metrics.put("core.bounded_" + family + ".ns_per_event",
                    s * 1e9 / events, "ns");
        metrics.put("core.bounded_" + family + ".hit_frac",
                    probes > 0.0 ? 1.0 - inserts / probes : 0.0, "fraction");
    }

    // sim: what a full bank costs over its members run alone, and what
    // the trackers add to the same bank.
    double bankS = 0.0, membersS = 0.0, trackerS = 0.0;
    double fcmS = 0.0, paperS = 0.0;
    for (size_t i = 0; i < w; ++i) {
        bankS += find(i, "cell", "0").replayS;
        for (const auto &family : kFamilies)
            membersS += find(i, "single", family).replayS;
        trackerS += find(i, "cell", "1").replayS -
                    find(i, "untracked", "1").replayS;
        trackerS += find(i, "cell", "2").replayS -
                    find(i, "untracked", "2").replayS;
        trackerS += find(i, "cell", "3").replayS -
                    find(i, "single", "l").replayS;
        // Unbounded fcm members of the grid: fcm1 and fcm2 once, fcm3
        // in the bank, overlap and improvement cells.
        fcmS += find(i, "single", "fcm1").replayS +
                find(i, "single", "fcm2").replayS +
                3.0 * find(i, "single", "fcm3").replayS;
        for (size_t g = 0; g < paper.size(); ++g) {
            const Task &cell = find(i, "cell", std::to_string(g));
            paperS += cell.replayS + cell.decodeS;
        }
    }
    metrics.put("sim.bank_overhead_frac", (bankS - membersS) / bankS,
                "fraction");
    metrics.put("sim.tracker_s", trackerS, "s");
    metrics.put("core.unbounded_fcm_cpu_s", fcmS, "s");
    metrics.put("core.paper_replay_s", paperS, "s");
    metrics.put("core.unbounded_fcm_cpu_frac", fcmS / paperS, "fraction");
    details["core.unbounded_fcm_cpu_frac.base"] =
            "core.paper_replay_s: single-thread decode + onBatch seconds of "
            "every paper-grid cell replayed on this run's traces at scale " +
            std::to_string(scale);
}

} // namespace perfbench
