/**
 * @file
 * perfbench: the repository benchmark program. run.py builds it and
 * calls it once per workload run:
 *
 *   perfbench --workload paper|sweep|vpd_bulk --seed N --seconds S
 *             --trace 0|1 --work-dir DIR --reference DIR [--tiny]
 *             [--detail FILE]
 *   perfbench --write-reference FILE --scale N
 *
 * The last line of standard output is the result object: correct,
 * attempted, failed and the metrics by name with their units. The
 * exit code is 0 only when every output was correct.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace perfbench {

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

double
processCpuSeconds()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t hi = values.size() / 2;
    return values.size() % 2 ? values[hi]
                              : (values[hi - 1] + values[hi]) / 2.0;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(values.size()));
    const size_t index =
            rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
stealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double ticks[8] = {};
    if (!(stat >> cpu) || cpu != "cpu")
        return 0.0;
    for (double &t : ticks) {
        if (!(stat >> t))
            return 0.0;
    }
    return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void
Rounds::begin()
{
    stealAtBegin_ = stealSeconds();
    values_.emplace_back();
}

void
Rounds::end(double wallS)
{
    steal_.push_back((stealSeconds() - stealAtBegin_) /
                     (wallS * static_cast<double>(nproc_)));
}

void
Rounds::put(const std::string &name, double value)
{
    values_.back()[name] = value;
}

std::vector<size_t>
Rounds::quiet() const
{
    const double cut = perfbench::median(steal_);
    std::vector<size_t> rounds;
    for (size_t i = 0; i < steal_.size(); ++i) {
        if (steal_[i] <= cut)
            rounds.push_back(i);
    }
    return rounds;
}

double
Rounds::median(const std::string &name) const
{
    std::vector<double> values;
    for (const size_t i : quiet())
        values.push_back(values_[i].at(name));
    return perfbench::median(values);
}

void
Rounds::describe(std::map<std::string, std::string> &details) const
{
    details["rounds"] = std::to_string(steal_.size());
    details["quiet_rounds"] = std::to_string(quiet().size());
    std::string shares;
    for (const double share : steal_) {
        if (!shares.empty())
            shares += ' ';
        shares += std::to_string(share);
    }
    details["round_steal_frac"] = shares;
    for (const auto &[name, value] : values_.front()) {
        std::string list;
        for (const auto &round : values_) {
            if (!list.empty())
                list += ' ';
            list += std::to_string(round.at(name));
        }
        details["round." + name] = list;
    }
}

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
Metrics::put(const std::string &name, double value,
             const std::string &unit)
{
    entries_.push_back(Entry{name, value, unit});
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
}

namespace {

unsigned
threadNumber()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned number = next++;
    return number;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

int
Tracer::open(const std::string &name, const std::string &layer,
             int parent, uint64_t id)
{
    const auto now = Clock::now();
    return add(name, layer, now, now, parent, id);
}

void
Tracer::close(int span)
{
    const double end = secondsBetween(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(span)].end = end;
}

int
Tracer::add(const std::string &name, const std::string &layer,
            Clock::time_point start, Clock::time_point end, int parent,
            uint64_t id)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.layer = layer;
    span.start = secondsBetween(origin_, start);
    span.end = secondsBetween(origin_, end);
    span.parent = parent;
    span.id = id;
    span.thread = threadNumber();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(
            spans_.size());
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            children[static_cast<size_t>(span.parent)].emplace_back(
                    span.start, span.end);
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // Union of the children's intervals, clipped to the span:
        // children may run on several threads at once.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = span.start;
        for (const auto &[start, end] : kids) {
            const double lo = std::max(start, reach);
            const double hi = std::min(end, span.end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(end, span.end));
        }
        self[span.layer] += std::max(0.0, span.end - span.start - covered);
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << "{\"name\": " << jsonString(span.name)
            << ", \"cat\": " << jsonString(span.layer)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
            << ", \"ts\": " << jsonNumber(span.start * 1e6)
            << ", \"dur\": " << jsonNumber((span.end - span.start) * 1e6)
            << ", \"args\": {\"span\": " << i
            << ", \"parent\": " << span.parent << ", \"id\": " << span.id
            << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
}

std::vector<RecordedTrace>
recordTraces(int scale)
{
    vp::workloads::WorkloadConfig config;
    config.scale = scale;
    std::vector<RecordedTrace> traces;
    for (const auto &info : vp::workloads::allWorkloads()) {
        vp::vm::RecordingSink sink;
        vp::vm::Machine machine;
        machine.setSink(&sink);
        const auto result = machine.run(info.build(config));
        if (!result.ok())
            throw std::runtime_error("workload " + info.name +
                                     " did not halt");
        traces.push_back(RecordedTrace{info.name, std::move(sink.events)});
    }
    return traces;
}

std::string
referenceFile(const RunOptions &options, int scale)
{
    return options.referenceDir + "/scale" + std::to_string(scale) +
           ".txt";
}

void
putSelfTimes(const Tracer &tracer, Metrics &metrics)
{
    for (const auto &[layer, seconds] : tracer.selfSeconds())
        metrics.put("self_s." + layer, seconds, "s");
}

} // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --reference DIR\n"
                 "                 [--tiny] [--detail FILE]\n"
                 "       perfbench --write-reference FILE --scale N\n",
                 why);
    std::exit(2);
}

void
writeDetail(const std::string &path, const RunOptions &options,
            const RunResult &result)
{
    std::ofstream out(path);
    out << "{\"workload\": " << jsonString(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"trace\": " << (options.trace ? "true" : "false")
        << ", \"tiny\": " << (options.tiny ? "true" : "false")
        << ", \"nproc\": " << options.nproc
        << ",\n \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
        << ",\n \"details\": {";
    bool first = true;
    for (const auto &[key, value] : result.details) {
        out << (first ? "" : ", ") << jsonString(key) << ": "
            << jsonString(value);
        first = false;
    }
    out << "},\n \"failures\": [";
    for (size_t i = 0; i < result.outcome.failures.size(); ++i) {
        out << (i ? ", " : "") << jsonString(result.outcome.failures[i]);
    }
    out << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: built without optimisation; "
                         "refusing to report numbers\n");
    return 3;
#endif
    RunOptions options;
    std::string detailPath;
    std::string writeRef;
    int refScale = 0;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            options.trace = value() == "1";
            haveTrace = true;
        } else if (arg == "--work-dir") {
            options.workDir = value();
        } else if (arg == "--reference") {
            options.referenceDir = value();
        } else if (arg == "--tiny") {
            options.tiny = true;
        } else if (arg == "--detail") {
            detailPath = value();
        } else if (arg == "--write-reference") {
            writeRef = value();
        } else if (arg == "--scale") {
            refScale = std::atoi(value().c_str());
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!writeRef.empty()) {
        if (refScale <= 0)
            usage("--write-reference needs --scale");
        return writeReference(writeRef, refScale);
    }
    if (options.workload.empty() || !haveTrace ||
        options.workDir.empty() || options.referenceDir.empty() ||
        options.seconds <= 0.0)
        usage("missing arguments");
    options.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::filesystem::create_directories(options.workDir);

    RunResult result;
    try {
        if (options.workload == "paper" || options.workload == "sweep")
            result = runStudy(options);
        else if (options.workload == "vpd_bulk")
            result = runVpd(options);
        else
            usage(("unknown workload " + options.workload).c_str());
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }

    for (const auto &failure : result.outcome.failures)
        std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
    if (!detailPath.empty())
        writeDetail(detailPath, options, result);

    const bool correct =
            result.outcome.failed == 0 && result.outcome.attempted > 0;
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << result.outcome.attempted
         << ", \"failed\": " << result.outcome.failed
         << ", \"metrics\": {";
    bool first = true;
    for (const auto &entry : result.metrics.entries()) {
        line << (first ? "" : ", ") << jsonString(entry.name)
             << ": {\"value\": " << jsonNumber(entry.value)
             << ", \"unit\": " << jsonString(entry.unit) << "}";
        first = false;
    }
    line << "}}";
    std::printf("%s\n", line.str().c_str());
    return correct ? 0 : 1;
}
