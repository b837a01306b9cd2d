/**
 * @file
 * The study workloads, `paper` and `sweep`: the paper's grids run as
 * campaigns through exp::CellScheduler from a warm trace cache, every
 * cell checked against reference statistics digests kept beside the
 * benchmark (reference/scale<N>.txt, written by --write-reference from
 * serial exp::runBenchmark over live VM execution).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "exp/capacity.hh"
#include "exp/suite.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;
namespace exp = vp::exp;

namespace perfbench {

namespace {

std::string
joined(const std::vector<std::string> &specs)
{
    std::string out;
    for (const auto &spec : specs)
        out += (out.empty() ? "" : ",") + spec;
    return out;
}

std::string
number(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
statsDigest(const vp::core::PredictionStats &stats)
{
    std::ostringstream out;
    out << stats.total() << " " << stats.predicted() << " "
        << stats.correct();
    for (int c = 0; c < vp::isa::numCategories; ++c) {
        const auto cat = static_cast<vp::isa::Category>(c);
        out << " " << stats.total(cat) << " " << stats.predicted(cat)
            << " " << stats.correct(cat);
    }
    return out.str();
}

std::vector<vp::core::PredictionStats>
runStats(const exp::BenchmarkRun &run)
{
    std::vector<vp::core::PredictionStats> stats;
    for (const auto &[spec, s] : run.predictors)
        stats.push_back(s);
    return stats;
}

Digests
runDigests(const exp::SuiteOptions &options, const exp::BenchmarkRun &run)
{
    return bankDigests(options.predictors, runStats(run),
                       run.overlap ? &*run.overlap : nullptr,
                       run.improvement ? &*run.improvement : nullptr,
                       run.values ? &*run.values : nullptr);
}

exp::SuiteOptions
suiteAt(int scale, std::vector<std::string> predictors)
{
    exp::SuiteOptions options;
    options.config.scale = scale;
    options.predictors = std::move(predictors);
    return options;
}

} // namespace

void
Reference::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, key;
        fields >> workload >> key;
        std::string digest;
        std::getline(fields, digest);
        digest.erase(0, digest.find_first_not_of(' '));
        digests_[workload + " " + key] = digest;
    }
}

bool
Reference::matches(const std::string &workload, const std::string &key,
                   const std::string &digest, std::string &why) const
{
    const auto it = digests_.find(workload + " " + key);
    if (it == digests_.end()) {
        why = workload + " " + key + ": no reference digest";
        return false;
    }
    if (it->second != digest) {
        why = workload + " " + key + ": got [" + digest +
              "] reference [" + it->second + "]";
        return false;
    }
    return true;
}

Digests
bankDigests(const std::vector<std::string> &specs,
            const std::vector<vp::core::PredictionStats> &stats,
            const vp::core::OverlapTracker *overlap,
            const vp::core::ImprovementTracker *improvement,
            const vp::core::ValueProfiler *values)
{
    Digests digests;
    for (size_t i = 0; i < specs.size() && i < stats.size(); ++i)
        digests.emplace_back("pred:" + specs[i], statsDigest(stats[i]));
    const std::string bank = joined(specs);
    if (overlap != nullptr) {
        std::string d = std::to_string(overlap->total());
        for (uint32_t mask = 0; mask < (1u << overlap->numPredictors());
             ++mask)
            d += " " + std::to_string(overlap->bucket(mask));
        digests.emplace_back("overlap:" + bank, d);
    }
    if (improvement != nullptr) {
        digests.emplace_back(
                "improvement:" + bank,
                std::to_string(improvement->staticCount()) + " " +
                        number(improvement->staticPctForImprovement(0.90)) +
                        " " +
                        number(improvement->staticPctForImprovement(0.97)));
    }
    if (values != nullptr) {
        digests.emplace_back(
                "values:" + bank,
                std::to_string(values->staticCount()) + " " +
                        number(values->staticFractionAtMost(1)) + " " +
                        number(values->dynamicFractionAtMost(64)));
    }
    return digests;
}

bool
checkCell(const Reference &reference, const std::string &workload,
          const Digests &digests, Outcome &outcome)
{
    ++outcome.attempted;
    for (const auto &[key, digest] : digests) {
        std::string why;
        if (!reference.matches(workload, key, digest, why)) {
            outcome.fail(why);
            return false;
        }
    }
    return true;
}

std::vector<exp::SuiteOptions>
paperGrid(int scale)
{
    std::vector<exp::SuiteOptions> grid;
    grid.push_back(suiteAt(scale, {"l", "s2", "fcm1", "fcm2", "fcm3"}));
    auto overlap = suiteAt(scale, {"l", "s2", "fcm3"});
    overlap.overlap = 3;
    grid.push_back(overlap);
    auto improvement = suiteAt(scale, {"s2", "fcm3"});
    improvement.improvementA = 1;
    improvement.improvementB = 0;
    grid.push_back(improvement);
    auto values = suiteAt(scale, {"l"});
    values.values = true;
    grid.push_back(values);
    return grid;
}

std::vector<exp::SuiteOptions>
sweepGrid(int scale)
{
    std::vector<std::string> bounded;
    for (const auto &family : exp::capacityFamilies()) {
        for (const size_t entries : exp::capacitySweepPoints())
            bounded.push_back(exp::boundedSpecFor(family, entries));
    }
    return {suiteAt(scale, bounded), suiteAt(scale, {"l"})};
}

Campaign
runCampaign(const std::vector<exp::SuiteOptions> &grid,
            const std::string &cacheDir, unsigned jobs,
            const Reference &reference, Outcome &outcome, Tracer &tracer,
            int parent)
{
    Campaign campaign;
    exp::ExperimentConfig config;
    config.traceCacheDir = cacheDir;
    Scope span(tracer, "campaign", "exp", parent);

    std::vector<std::vector<exp::BenchmarkRun>> results(grid.size());
    std::vector<std::string> errors(grid.size());
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    exp::CellScheduler scheduler(config, jobs);
    for (const auto &options : grid)
        scheduler.prefetch(options);
    for (size_t g = 0; g < grid.size(); ++g) {
        try {
            results[g] = scheduler.suite(grid[g]);
        } catch (const std::exception &error) {
            errors[g] = error.what();
        }
    }
    const auto t1 = Clock::now();
    campaign.cpuS = processCpuSeconds() - cpu0;
    campaign.wallS = secondsBetween(t0, t1);
    span.close();

    for (size_t g = 0; g < grid.size(); ++g) {
        if (!errors[g].empty()) {
            for (const auto &info : vp::workloads::allWorkloads()) {
                ++outcome.attempted;
                outcome.fail(info.name + ": cell threw: " + errors[g]);
            }
            continue;
        }
        for (const auto &run : results[g])
            checkCell(reference, run.name, runDigests(grid[g], run),
                      outcome);
    }

    campaign.records = scheduler.records();
    campaign.workers = scheduler.workers();
    campaign.requested = grid.size() * vp::workloads::allWorkloads().size();
    campaign.unique = scheduler.uniqueCells();
    for (size_t i = 0; i < campaign.records.size(); ++i) {
        const auto &record = campaign.records[i];
        campaign.predictions += static_cast<double>(record.events) *
                                static_cast<double>(record.predictors.size());
        const auto start =
                t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                     record.queuedMs));
        const auto end =
                start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                        record.wallMs));
        tracer.add("cell " + record.workload + " x" +
                           std::to_string(record.predictors.size()),
                   "cell", start, end, span.index(), i);
    }
    return campaign;
}

void
warmTraceCache(const std::string &cacheDir, int scale, unsigned jobs)
{
    exp::ExperimentConfig config;
    config.traceCacheDir = cacheDir;
    exp::CellScheduler scheduler(config, jobs);
    scheduler.suite(suiteAt(scale, {"l"}));
}

void
putCampaignLayers(const Campaign &campaign, Metrics &metrics,
                  Details &details)
{
    double busyMs = 0.0, queuedMs = 0.0, queuedMaxMs = 0.0, criticalMs = 0.0;
    std::string critical;
    for (const auto &record : campaign.records) {
        busyMs += record.wallMs;
        queuedMs += record.queuedMs;
        queuedMaxMs = std::max(queuedMaxMs, record.queuedMs);
        if (record.wallMs > criticalMs) {
            criticalMs = record.wallMs;
            critical = record.workload + " bank of " +
                       std::to_string(record.predictors.size());
        }
    }
    metrics.put("exp.critical_cell_s", criticalMs / 1e3, "s");
    details["exp.critical_cell"] = critical;
    metrics.put("exp.queue_wait_s", queuedMs / 1e3, "s");
    metrics.put("exp.queue_wait_max_s", queuedMaxMs / 1e3, "s");
    metrics.put("exp.worker_busy_frac",
                busyMs / 1e3 /
                        (std::max(1u, campaign.workers) * campaign.wallS),
                "fraction");
    metrics.put("exp.cells", static_cast<double>(campaign.unique), "count");
    metrics.put("exp.dedup_hits",
                static_cast<double>(campaign.requested - campaign.unique),
                "count");
}

RunResult
runStudy(const RunOptions &options)
{
    RunResult result;
    const int scale = options.tiny ? kTinyScale : kStudyScale;
    Reference reference;
    reference.load(referenceFile(options, scale));
    const auto grid = options.workload == "paper" ? paperGrid(scale)
                                                  : sweepGrid(scale);
    Tracer untraced(false);

    // Set-up: workload build, VM execution and trace recording into a
    // fresh cache, several times; the last cache serves the campaigns.
    // Warming the cache through the scheduler also replays the traces
    // through a single-l bank. That replay, timed again on the now-warm
    // cache, is taken off, so setup_s holds the recording alone.
    std::vector<double> setupS;
    std::string cache, replayS;
    for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
        const std::string dir =
                options.workDir + "/cache" + std::to_string(i);
        fs::remove_all(dir);
        const auto t0 = Clock::now();
        warmTraceCache(dir, scale, options.nproc);
        const double cold = secondsSince(t0);
        const auto t1 = Clock::now();
        warmTraceCache(dir, scale, options.nproc);
        const double replay = secondsSince(t1);
        setupS.push_back(cold - replay);
        if (!replayS.empty())
            replayS += ' ';
        replayS += std::to_string(replay);
        if (!cache.empty())
            fs::remove_all(cache);
        cache = dir;
    }

    Metrics &m = result.metrics;
    if (!options.trace) {
        Rounds rounds(options.nproc);
        const auto start = Clock::now();
        do {
            rounds.begin();
            const Campaign c = runCampaign(grid, cache, options.nproc,
                                           reference, result.outcome,
                                           untraced, -1);
            rounds.end(c.wallS);
            rounds.put("campaign_s", c.wallS);
            rounds.put("cpu_s", c.cpuS);
            rounds.put("pred_per_s", c.predictions / c.wallS);
            std::vector<double> rttUs;
            for (const auto &record : c.records)
                rttUs.push_back(record.wallMs * 1e3);
            rounds.put("rtt_p50_us", median(rttUs));
            rounds.put("rtt_p99_us", percentile(rttUs, 99));
            rounds.put("rtt_samples", static_cast<double>(rttUs.size()));
        } while (secondsSince(start) < options.seconds);
        m.put("setup_s", median(setupS), "s");
        result.details["setup_replay_s"] = replayS;
        m.put("campaign_s", rounds.median("campaign_s"), "s");
        m.put("cpu_s", rounds.median("cpu_s"), "s");
        m.put("peak_rss_mb", peakRssMb(), "MB");
        m.put("pred_per_s", rounds.median("pred_per_s"), "1/s");
        m.put("rtt_p50_us", rounds.median("rtt_p50_us"), "us");
        m.put("rtt_p99_us", rounds.median("rtt_p99_us"), "us");
        rounds.describe(result.details);
    } else {
        Tracer tracer(true);
        const Campaign plain = runCampaign(grid, cache, options.nproc,
                                           reference, result.outcome,
                                           untraced, -1);
        const int root = tracer.open("round " + options.workload, "bench",
                                     -1, 0);
        const Campaign traced = runCampaign(grid, cache, options.nproc,
                                            reference, result.outcome,
                                            tracer, root);
        tracer.close(root);
        m.put("trace_overhead_s", traced.wallS - plain.wallS, "s");
        m.put("trace_overhead_frac",
              (traced.wallS - plain.wallS) / plain.wallS, "fraction");
        putCampaignLayers(traced, m, result.details);
        putLowerLayers(scale, options.workDir, reference,
                       m, result.outcome, tracer, result.details);
        const VpdTraffic traffic =
                makeTraffic(prefixTraces(recordTraces(scale), 16384));
        putNetSuite(traffic, options, nullptr, m, result.outcome, tracer,
                    result.details);
        putSelfTimes(tracer, m);
        const std::string spans = options.workDir + "/spans-" +
                                  options.workload + ".json";
        tracer.write(spans);
        result.details["spans"] = spans;
    }
    fs::remove_all(cache);
    return result;
}

int
writeReference(const std::string &path, int scale)
{
    // Serial exp::runBenchmark over live VM execution (no trace cache,
    // per-event predictor protocol): a path independent of the
    // scheduler, the trace files and the batched replay it checks.
    std::vector<std::pair<exp::SuiteOptions, std::string>> jobs;
    for (const auto &grid : {paperGrid(scale), sweepGrid(scale)}) {
        for (const auto &options : grid) {
            for (const auto &info : vp::workloads::allWorkloads())
                jobs.emplace_back(options, info.name);
        }
    }
    std::vector<std::future<Digests>> futures;
    for (const auto &[options, workload] : jobs) {
        futures.push_back(std::async(
                std::launch::async, [o = options, w = workload] {
                    return runDigests(o, exp::runBenchmark(w, o));
                }));
        // At most four jobs in flight.
        for (size_t j = 0; j + 4 < futures.size() + 1; ++j)
            futures[j].wait();
    }
    std::map<std::string, std::string> lines;
    for (size_t i = 0; i < jobs.size(); ++i) {
        for (const auto &[key, digest] : futures[i].get()) {
            const std::string id = jobs[i].second + " " + key;
            const auto [it, fresh] = lines.emplace(id, digest);
            if (!fresh && it->second != digest) {
                std::fprintf(stderr, "inconsistent digests for %s\n",
                             id.c_str());
                return 1;
            }
        }
    }
    std::ofstream out(path);
    out << "# workload key digest -- perfbench --write-reference "
        << path << " --scale " << scale << "\n";
    for (const auto &[id, digest] : lines)
        out << id << " " << digest << "\n";
    return out ? 0 : 1;
}

} // namespace perfbench
