/**
 * @file
 * Shared pieces of the repository benchmark: clocks, process
 * counters, order statistics, the metric sink, the span tracer and the
 * run options every workload receives.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/improvement.hh"
#include "core/overlap.hh"
#include "core/stats.hh"
#include "core/value_profile.hh"
#include "exp/experiment.hh"
#include "vm/trace.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point from, Clock::time_point to);
double secondsSince(Clock::time_point from);

/** Process user + system CPU seconds (all threads). */
double processCpuSeconds();

/** Peak resident set of the process, MiB. */
double peakRssMb();

double median(std::vector<double> values);

/** Nearest-rank percentile of @p values (p in [0, 100]). */
double percentile(std::vector<double> values, double p);

/**
 * Seconds of CPU time the hypervisor gave to other guests while this
 * one wanted to run, summed over all CPUs (/proc/stat "steal"; 0 where
 * the kernel does not report it).
 */
double stealSeconds();

/**
 * The per-round figures of an untraced run. Each round also records
 * the share of the host's CPU time stolen from this guest while it
 * ran; every figure is reported as its median over the quieter half
 * of the rounds, so that a burst of a
 * neighbouring guest on a shared host moves few of the rounds that
 * count. The program's own work is the same in every round.
 */
class Rounds
{
  public:
    explicit Rounds(unsigned nproc) : nproc_(nproc) {}

    void begin();
    void end(double wallS);

    /** One figure of the current round. */
    void put(const std::string &name, double value);

    double median(const std::string &name) const;

    size_t size() const { return steal_.size(); }

    /** Rounds, quiet rounds and steal shares, for the result file. */
    void describe(std::map<std::string, std::string> &details) const;

  private:
    std::vector<size_t> quiet() const;

    unsigned nproc_;
    double stealAtBegin_ = 0.0;
    std::vector<double> steal_;
    std::vector<std::map<std::string, double>> values_;
};

/** splitmix64, the benchmark's seed mixer. */
uint64_t mix(uint64_t x);

/** Metric values of one run, in the order they were put. */
class Metrics
{
  public:
    void put(const std::string &name, double value,
             const std::string &unit);

    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/**
 * In-memory span recorder. A span has a name, the layer it times, a
 * start and end (seconds since the tracer was made), its parent span
 * and the id shared by every span of one cell or request. Spans are
 * recorded only from the benchmark's own code, around its calls into
 * a layer. When disabled, every call is a no-op.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    int open(const std::string &name, const std::string &layer,
             int parent, uint64_t id);
    void close(int span);

    /** Record a span whose interval is already known. */
    int add(const std::string &name, const std::string &layer,
            Clock::time_point start, Clock::time_point end, int parent,
            uint64_t id);

    /**
     * Self time per layer: each span's duration minus the part of
     * its interval its children cover, summed by layer.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as a Chrome trace-event JSON file. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::string layer;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        uint64_t id = 0;
        unsigned thread = 0;
    };

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op on a disabled tracer. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name,
          const std::string &layer, int parent = -1, uint64_t id = 0)
        : tracer_(tracer),
          index_(tracer.enabled() ? tracer.open(name, layer, parent, id)
                                  : -1)
    {
    }
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int index() const { return index_; }

    void
    close()
    {
        if (index_ >= 0)
            tracer_.close(index_);
        index_ = -1;
    }

  private:
    Tracer &tracer_;
    int index_;
};

/** Counts of the correctness gate. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few, for stderr

    void
    fail(const std::string &what)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
};

/** Everything a workload receives from the command line. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;              ///< self-test size
    unsigned nproc = 1;
    std::string workDir;            ///< scratch space inside the checkout
    std::string referenceDir;       ///< holds scale<N>.txt digests
};

/** The reference digests of @p scale under options.referenceDir. */
std::string referenceFile(const RunOptions &options, int scale);

/** Free-form details that go to the result file, not the metrics. */
using Details = std::map<std::string, std::string>;

/** Result of one workload run. */
struct RunResult
{
    Metrics metrics;
    Outcome outcome;
    Details details;
};

/** One workload's value trace, recorded into memory. */
struct RecordedTrace
{
    std::string workload;
    std::vector<vp::vm::TraceEvent> events;
};

/** Build and run the seven workloads at @p scale into memory. */
std::vector<RecordedTrace> recordTraces(int scale);

/** Scales the workloads run at. */
constexpr int kStudyScale = 50;
constexpr int kTinyScale = 5;
constexpr int kVpdScale = 5;

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 11;

// ---- study layer (study.cc) -----------------------------------------

/**
 * Reference statistics digests, one per (workload, key): "pred:<spec>"
 * for a predictor's PredictionStats and "overlap:" / "improvement:" /
 * "values:" plus the bank's specs for the trackers of a cell.
 */
class Reference
{
  public:
    /** Load @p path; throws std::runtime_error when unreadable. */
    void load(const std::string &path);

    /**
     * Compare one digest. A key the reference does not hold is a
     * mismatch too, so a reference for the wrong scale fails loudly.
     */
    bool matches(const std::string &workload, const std::string &key,
                 const std::string &digest, std::string &why) const;

    size_t size() const { return digests_.size(); }

  private:
    std::map<std::string, std::string> digests_;
};

/** (key, digest) pairs of one evaluated bank. */
using Digests = std::vector<std::pair<std::string, std::string>>;

/** Digests of a bank of @p specs and whatever trackers it carried. */
Digests bankDigests(const std::vector<std::string> &specs,
                    const std::vector<vp::core::PredictionStats> &stats,
                    const vp::core::OverlapTracker *overlap,
                    const vp::core::ImprovementTracker *improvement,
                    const vp::core::ValueProfiler *values);

/** Count one cell and compare its digests; true when all match. */
bool checkCell(const Reference &reference, const std::string &workload,
               const Digests &digests, Outcome &outcome);

/** The Figure 3/8/9/10 grids: unbounded banks and their trackers. */
std::vector<vp::exp::SuiteOptions> paperGrid(int scale);

/** The bounded capacity sweep bank plus the single-l bank. */
std::vector<vp::exp::SuiteOptions> sweepGrid(int scale);

/** One campaign of a grid through a fresh CellScheduler. */
struct Campaign
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double predictions = 0.0;       ///< events x bank members, summed
    unsigned workers = 0;
    size_t requested = 0;
    size_t unique = 0;
    std::vector<vp::exp::CellScheduler::CellRecord> records;
};

Campaign runCampaign(const std::vector<vp::exp::SuiteOptions> &grid,
                     const std::string &cacheDir, unsigned jobs,
                     const Reference &reference, Outcome &outcome,
                     Tracer &tracer, int parent);

/** Record the seven traces of @p scale into a fresh trace cache. */
void warmTraceCache(const std::string &cacheDir, int scale,
                    unsigned jobs);

/** exp.* per-layer metrics of one campaign. */
void putCampaignLayers(const Campaign &campaign, Metrics &metrics,
                       Details &details);

// ---- net layer (vpd.cc) ---------------------------------------------

/** Traces served to vpd tenants and their serial-replay references. */
struct VpdTraffic
{
    std::vector<RecordedTrace> traces;
    std::vector<vp::core::PredictionStats> references;
};

/** Serial replay of every trace on the default server bank spec. */
VpdTraffic makeTraffic(std::vector<RecordedTrace> traces);

/** Keep at most @p events events of every trace. */
std::vector<RecordedTrace> prefixTraces(const std::vector<RecordedTrace> &traces,
                                        size_t events);

/** Live-server per-layer figures of one bulk round. */
struct NetLive
{
    std::vector<double> outsideServiceUs;   ///< rtt - in-process service
    double contentionsPerKframe = 0.0;
    double poolReuseFrac = 0.0;
};

/** One closed-loop vpd_bulk round; fills @p live when given. */
struct BulkRound
{
    double wallS = 0.0;
    double cpuS = 0.0;
    uint64_t events = 0;
    uint64_t frames = 0;
    std::vector<double> rttUs;
};
BulkRound runBulkRound(const VpdTraffic &traffic, unsigned clients,
                       uint64_t seed, uint64_t round, Outcome &outcome,
                       Tracer &tracer, int parent, NetLive *live);

/** net.bank.*, net.encode/decode per-layer metrics (no socket). */
void putNetLayers(const std::vector<RecordedTrace> &traces,
                  Metrics &metrics, Tracer &tracer);

/**
 * Every net per-layer metric of a traced run: the in-process probes
 * on @p traffic, plus the live-server figures of the run's own bulk
 * round, or of a short one measured here when the run has none.
 */
void putNetSuite(const VpdTraffic &traffic, const RunOptions &options,
                 const NetLive *bulkLive, Metrics &metrics, Outcome &outcome,
                 Tracer &tracer, Details &details);

// ---- lower layers (layers.cc) ---------------------------------------

/**
 * The decomposed replay every traced run reports: workload build, VM
 * run, trace encode and decode, then single-member and full-bank
 * onBatch over the same recorded traces, checked against @p reference.
 */
void putLowerLayers(int scale, const std::string &workDir,
                    const Reference &reference,
                    Metrics &metrics, Outcome &outcome, Tracer &tracer,
                    Details &details);

/** Self time of every layer, from the tracer. */
void putSelfTimes(const Tracer &tracer, Metrics &metrics);

// ---- workload entry points --------------------------------------------

RunResult runStudy(const RunOptions &options);
RunResult runVpd(const RunOptions &options);
int writeReference(const std::string &path, int scale);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
