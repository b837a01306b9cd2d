/**
 * @file
 * The vpd workload, `vpd_bulk`, against an in-process net::VpdServer on
 * its default configuration, and the net per-layer probes. Every
 * tenant's server-side statistics are checked against a serial replay
 * of exactly the events it was sent.
 */

#include <atomic>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "exp/suite.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "net/sharded_bank.hh"
#include "sim/driver.hh"

namespace net = vp::net;

namespace perfbench {

namespace {

/** Events per BATCH frame (the vpd_loadgen default). */
constexpr size_t kBatchEvents = 512;

const std::string &
serverSpec()
{
    static const std::string spec = net::VpdServerConfig{}.banks.spec;
    return spec;
}

/** Deterministic stream of 64-bit values from a seed. */
class Random
{
  public:
    explicit Random(uint64_t seed) : state_(seed) {}

    uint64_t next() { return mix(state_++); }

  private:
    uint64_t state_;
};

/** Fisher-Yates permutation of [0, n) drawn from @p random. */
std::vector<size_t>
permutation(size_t n, Random &random)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[random.next() % i]);
    return order;
}

/** Keep a computed value alive so the loop computing it stays. */
void
keep(uint64_t value)
{
    static std::atomic<uint64_t> sink{0};
    sink.fetch_add(value, std::memory_order_relaxed);
}

double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Check every tenant against its serial reference over @p port. */
void
checkTenants(uint16_t port, const std::vector<uint64_t> &tenants,
             const std::vector<vp::core::PredictionStats> &references,
             Outcome &outcome)
{
    auto checker = net::VpdClient::connectTcp(port);
    for (size_t t = 0; t < tenants.size(); ++t) {
        ++outcome.attempted;
        const auto stats = checker.tenantStats(tenants[t]);
        if (!stats || !(*stats == net::TenantStats::from(references[t])))
            outcome.fail("tenant " + std::to_string(tenants[t]) +
                         ": server stats differ from serial replay");
    }
}

/** STATS-derived live figures of a server after its traffic. */
void
collectServerLive(const net::VpdServer &server, uint64_t frames,
                  NetLive &live)
{
    const auto snapshot = server.statsSnapshot();
    live.contentionsPerKframe =
            static_cast<double>(snapshot.counter("shard.contentions")) *
            1e3 / static_cast<double>(std::max<uint64_t>(1, frames));
    const uint64_t acquires = snapshot.counter("pool.acquires");
    live.poolReuseFrac =
            acquires == 0 ? 0.0
                          : static_cast<double>(
                                    snapshot.counter("pool.reuses")) /
                                    static_cast<double>(acquires);
}

} // namespace

VpdTraffic
makeTraffic(std::vector<RecordedTrace> traces)
{
    VpdTraffic traffic;
    for (const auto &trace : traces) {
        vp::sim::PredictorBank bank;
        bank.add(vp::exp::makePredictor(serverSpec()));
        vp::sim::replayTrace(trace.events, bank);
        traffic.references.push_back(bank.member(0).stats);
    }
    traffic.traces = std::move(traces);
    return traffic;
}

std::vector<RecordedTrace>
prefixTraces(const std::vector<RecordedTrace> &traces, size_t events)
{
    std::vector<RecordedTrace> out;
    for (const auto &trace : traces) {
        const size_t n = std::min(events, trace.events.size());
        out.push_back(RecordedTrace{
                trace.workload,
                std::vector<vp::vm::TraceEvent>(trace.events.begin(),
                                                trace.events.begin() +
                                                        static_cast<long>(n))});
    }
    return out;
}

BulkRound
runBulkRound(const VpdTraffic &traffic, unsigned clients, uint64_t seed,
             uint64_t round, Outcome &outcome, Tracer &tracer, int parent,
             NetLive *live)
{
    const size_t w = traffic.traces.size();
    net::VpdServer server(net::VpdServerConfig{});
    server.start();

    // The seed picks every tenant id (and so its lock stripe) and the
    // order in which each client streams its seven traces.
    std::vector<uint64_t> tenants(clients * w);
    std::vector<std::vector<size_t>> order(clients);
    for (unsigned c = 0; c < clients; ++c) {
        Random random(mix(seed) ^ mix(round * 131 + c));
        order[c] = permutation(w, random);
        for (size_t i = 0; i < w; ++i)
            tenants[c * w + i] = random.next();
    }

    struct Frame
    {
        uint64_t tenant;
        const vp::vm::TraceEvent *events;
        size_t n;
        double rttUs;
    };
    std::vector<std::vector<Frame>> frames(clients);
    std::vector<uint64_t> framesFailed(clients, 0);
    std::vector<std::string> errors(clients);

    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Scope client(tracer, "client " + std::to_string(c), "bench",
                         parent, c);
            size_t total = 0;
            for (const size_t t : order[c])
                total += (traffic.traces[t].events.size() + kBatchEvents -
                          1) / kBatchEvents;
            try {
                auto conn = net::VpdClient::connectTcp(server.port());
                for (const size_t t : order[c]) {
                    const uint64_t tenant = tenants[c * w + t];
                    const auto &events = traffic.traces[t].events;
                    for (size_t i = 0; i < events.size();
                         i += kBatchEvents) {
                        const size_t n =
                                std::min(kBatchEvents, events.size() - i);
                        Scope frame(tracer, "batch", "net", client.index(),
                                    tenant);
                        const auto sentAt = Clock::now();
                        const auto reply = conn.batch(
                                tenant,
                                vp::vm::TraceSpan(events.data() + i, n));
                        const auto done = Clock::now();
                        frame.close();
                        if (reply.count != n)
                            throw std::runtime_error("short batch reply");
                        frames[c].push_back(Frame{tenant, events.data() + i,
                                                  n,
                                                  microsBetween(sentAt,
                                                                done)});
                    }
                }
            } catch (const std::exception &error) {
                errors[c] = error.what();
                framesFailed[c] = total - frames[c].size();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    BulkRound result;
    result.wallS = secondsSince(t0);
    result.cpuS = processCpuSeconds() - cpu0;

    for (unsigned c = 0; c < clients; ++c) {
        outcome.attempted += frames[c].size() + framesFailed[c];
        for (uint64_t f = 0; f < framesFailed[c]; ++f)
            outcome.fail("client " + std::to_string(c) + ": " + errors[c]);
        for (const auto &frame : frames[c]) {
            result.events += frame.n;
            result.rttUs.push_back(frame.rttUs);
        }
    }
    result.frames = result.rttUs.size();

    std::vector<vp::core::PredictionStats> references;
    for (unsigned c = 0; c < clients; ++c) {
        for (size_t t = 0; t < w; ++t)
            references.push_back(traffic.references[t]);
    }
    checkTenants(server.port(), tenants, references, outcome);

    if (live != nullptr) {
        collectServerLive(server, result.frames, *live);
        // In-process service time of the very same frames on a fresh
        // bank map: what is left of the round trip is queueing plus
        // transport.
        net::ShardedBankMap banks(net::VpdServerConfig{}.banks);
        for (const auto &perClient : frames) {
            for (const auto &frame : perClient) {
                const auto s0 = Clock::now();
                banks.applyBatch(frame.tenant,
                                 vp::vm::TraceSpan(frame.events, frame.n));
                live->outsideServiceUs.push_back(
                        frame.rttUs - microsBetween(s0, Clock::now()));
            }
        }
    }
    server.stop();
    return result;
}

void
putNetLayers(const std::vector<RecordedTrace> &traces, Metrics &metrics,
             Tracer &tracer)
{
    const net::ShardedBankConfig config = net::VpdServerConfig{}.banks;
    double events = 0.0;
    for (const auto &trace : traces)
        events += static_cast<double>(trace.events.size());

    // In-process bank map, no socket: batched, per event, and queries.
    {
        net::ShardedBankMap banks(config);
        Scope span(tracer, "applyBatch", "net.bank");
        const auto t0 = Clock::now();
        for (size_t t = 0; t < traces.size(); ++t) {
            const auto &ev = traces[t].events;
            for (size_t i = 0; i < ev.size(); i += kBatchEvents)
                banks.applyBatch(t + 1, vp::vm::TraceSpan(
                                                ev.data() + i,
                                                std::min(kBatchEvents,
                                                         ev.size() - i)));
        }
        metrics.put("net.bank.apply_batch_ns_per_event",
                    secondsSince(t0) * 1e9 / events, "ns");
    }
    net::ShardedBankMap banks(config);
    {
        Scope span(tracer, "applyOne", "net.bank");
        const auto t0 = Clock::now();
        for (size_t t = 0; t < traces.size(); ++t) {
            for (const auto &event : traces[t].events)
                banks.applyOne(t + 1, event);
        }
        metrics.put("net.bank.apply_one_ns", secondsSince(t0) * 1e9 / events,
                    "ns");
    }
    {
        Scope span(tracer, "predict", "net.bank");
        uint64_t sum = 0;
        const auto t0 = Clock::now();
        for (size_t t = 0; t < traces.size(); ++t) {
            for (const auto &event : traces[t].events)
                sum += banks.predict(t + 1, event.pc).value;
        }
        metrics.put("net.bank.predict_ns", secondsSince(t0) * 1e9 / events,
                    "ns");
        keep(sum);
    }

    // Frame encode and decode: BATCH frames of kBatchEvents events, and
    // the PREDICT + TRAIN pair of one rpc request.
    const auto codec = [&](const std::string &kind, bool batch) {
        std::vector<uint8_t> wire;
        double frames = 0.0;
        std::vector<double> encodeNs, decodeNs;
        std::vector<vp::vm::TraceEvent> scratch;
        for (int rep = 0; rep < 3; ++rep) {
            wire.clear();
            frames = 0.0;
            Scope enc(tracer, "encode " + kind, "net.codec");
            const auto t0 = Clock::now();
            for (size_t t = 0; t < traces.size(); ++t) {
                const auto &ev = traces[t].events;
                if (batch) {
                    for (size_t i = 0; i < ev.size(); i += kBatchEvents) {
                        net::encodeBatch(
                                wire, t + 1,
                                vp::vm::TraceSpan(
                                        ev.data() + i,
                                        std::min(kBatchEvents,
                                                 ev.size() - i)));
                        frames += 1.0;
                    }
                } else {
                    for (const auto &event : ev) {
                        net::encodePredict(wire, t + 1, event.pc);
                        net::encodeTrain(wire, t + 1, event);
                        frames += 2.0;
                    }
                }
            }
            encodeNs.push_back(secondsSince(t0) * 1e9 / frames);
            enc.close();

            Scope dec(tracer, "decode " + kind, "net.codec");
            const auto t1 = Clock::now();
            net::FrameDecoder decoder;
            decoder.feed(wire.data(), wire.size());
            uint64_t decoded = 0;
            while (auto frame = decoder.next()) {
                if (frame->op == net::Op::Batch) {
                    net::decodeBatch(frame->payload, scratch);
                } else if (frame->op == net::Op::Predict) {
                    decoded += net::decodePredict(frame->payload).pc;
                } else {
                    decoded += net::decodeTrain(frame->payload).event.value;
                }
            }
            decodeNs.push_back(secondsSince(t1) * 1e9 / frames);
            keep(decoded);
        }
        metrics.put("net.encode" + kind + "_ns_per_frame", median(encodeNs),
                    "ns");
        metrics.put("net.decode" + kind + "_ns_per_frame", median(decodeNs),
                    "ns");
    };
    codec("", true);
    codec("_rpc", false);
}

void
putNetSuite(const VpdTraffic &traffic, const RunOptions &options,
            const NetLive *bulkLive, Metrics &metrics, Outcome &outcome,
            Tracer &tracer, Details &details)
{
    putNetLayers(traffic.traces, metrics, tracer);
    NetLive bulk;
    if (bulkLive == nullptr) {
        runBulkRound(traffic, options.nproc, options.seed, 0, outcome,
                     tracer, -1, &bulk);
        bulkLive = &bulk;
    }
    metrics.put("net.outside_service_us_p99",
                percentile(bulkLive->outsideServiceUs, 99), "us");
    metrics.put("shard.contentions_per_kframe",
                bulkLive->contentionsPerKframe, "count");
    metrics.put("pool.reuse_frac", bulkLive->poolReuseFrac, "fraction");
    details["net.outside_service_samples"] =
            std::to_string(bulkLive->outsideServiceUs.size());
}

RunResult
runVpd(const RunOptions &options)
{
    RunResult result;
    Metrics &m = result.metrics;
    Tracer untraced(false);

    // Set-up: recording, serial reference replays and server start.
    std::vector<double> setupS;
    VpdTraffic traffic;
    for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
        const auto t0 = Clock::now();
        traffic = makeTraffic(recordTraces(kVpdScale));
        net::VpdServer server(net::VpdServerConfig{});
        server.start();
        setupS.push_back(secondsSince(t0));
        server.stop();
    }

    // Percentiles are taken per round; see Rounds for how rounds count.
    const auto run = [&](Rounds &rounds, uint64_t index, Tracer &tracer,
                         int parent, NetLive *live) {
        rounds.begin();
        const BulkRound r = runBulkRound(traffic, options.nproc,
                                         options.seed, index, result.outcome,
                                         tracer, parent, live);
        rounds.end(r.wallS);
        rounds.put("campaign_s", r.wallS);
        rounds.put("cpu_s", r.cpuS);
        rounds.put("pred_per_s", static_cast<double>(r.events) / r.wallS);
        rounds.put("rtt_p50_us", median(r.rttUs));
        rounds.put("rtt_p99_us", percentile(r.rttUs, 99));
        rounds.put("rtt_samples", static_cast<double>(r.rttUs.size()));
        return r.wallS;
    };

    // Warm-up, not reported: threads, sockets and the allocator.
    Rounds unreported(options.nproc);
    run(unreported, 0, untraced, -1, nullptr);

    if (!options.trace) {
        Rounds rounds(options.nproc);
        const auto start = Clock::now();
        uint64_t index = 1;
        do {
            run(rounds, index++, untraced, -1, nullptr);
        } while (secondsSince(start) < options.seconds);
        m.put("setup_s", median(setupS), "s");
        m.put("campaign_s", rounds.median("campaign_s"), "s");
        m.put("cpu_s", rounds.median("cpu_s"), "s");
        m.put("peak_rss_mb", peakRssMb(), "MB");
        m.put("pred_per_s", rounds.median("pred_per_s"), "1/s");
        m.put("rtt_p50_us", rounds.median("rtt_p50_us"), "us");
        m.put("rtt_p99_us", rounds.median("rtt_p99_us"), "us");
        rounds.describe(result.details);
        return result;
    }

    Tracer tracer(true);
    const double plain = run(unreported, 1, untraced, -1, nullptr);
    NetLive live;
    const int root = tracer.open("round " + options.workload, "bench", -1, 0);
    const double traced = run(unreported, 2, tracer, root, &live);
    tracer.close(root);
    m.put("trace_overhead_s", traced - plain, "s");
    m.put("trace_overhead_frac", (traced - plain) / plain, "fraction");

    // The scheduler and lower layers over this run's traces: a paper
    // grid campaign at the vpd scale and the decomposed replay.
    Reference reference;
    reference.load(referenceFile(options, kVpdScale));
    const std::string cache = options.workDir + "/cache-vpd";
    warmTraceCache(cache, kVpdScale, options.nproc);
    const Campaign campaign =
            runCampaign(paperGrid(kVpdScale), cache, options.nproc,
                        reference, result.outcome, tracer, -1);
    std::filesystem::remove_all(cache);
    putCampaignLayers(campaign, m, result.details);
    putLowerLayers(kVpdScale, options.workDir, reference, m, result.outcome,
                   tracer, result.details);
    putNetSuite(traffic, options, &live, m, result.outcome, tracer,
                result.details);
    putSelfTimes(tracer, m);
    const std::string spans =
            options.workDir + "/spans-" + options.workload + ".json";
    tracer.write(spans);
    result.details["spans"] = spans;
    return result;
}

} // namespace perfbench
