/**
 * @file
 * `vpd` — the prediction server binary.
 *
 * Serves the vpd wire protocol (src/net/protocol.hh) against a
 * ShardedBankMap of per-(tenant, pc-group) predictor banks, one
 * thread per connection.
 *
 * Usage: vpd [options]
 *   --spec S            predictor spec per bank (default fcm3@1024/4096x4)
 *   --stripes N         lock stripes (default 64, rounded to pow2)
 *   --pc-group-bits B   pc bits per bank (default 64 = 1 bank/tenant)
 *   --port P            TCP port on 127.0.0.1 (default 0 = ephemeral)
 *   --unix PATH         listen on a Unix socket instead of TCP
 *   --stats HOST:PORT   connect to a running server, print its STATS
 *                       snapshot (rendered obs::Registry), exit
 *   --stats-unix PATH   same over a Unix socket
 *   --smoke             start a loopback server, run one client
 *                       exchange against it, print the STATS
 *                       snapshot, exit 0 (the ctest smoke mode)
 *
 * Without --stats/--smoke the server runs until SIGINT/SIGTERM, then
 * stops gracefully (in-flight requests drain).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exp/suite.hh"
#include "net/client.hh"
#include "net/server.hh"

using namespace vp;

namespace {

int
usage()
{
    std::fprintf(
            stderr,
            "usage: vpd [--spec S] [--stripes N] [--pc-group-bits B]\n"
            "           [--port P | --unix PATH]\n"
            "           [--stats HOST:PORT | --stats-unix PATH]\n"
            "           [--smoke]\n");
    return 2;
}

/** One tiny client exchange proving the server serves (--smoke). */
int
smokeExchange(net::VpdServer &server)
{
    auto client = net::VpdClient::connectTcp(server.port());
    std::vector<vm::TraceEvent> events;
    for (uint64_t i = 0; i < 256; ++i) {
        vm::TraceEvent event;
        event.pc = 64 + 8 * (i % 4);
        event.op = isa::Opcode::Add;
        event.cat = isa::Category::AddSub;
        event.value = 100 + i;      // stride stream: learnable
        events.push_back(event);
    }
    const auto reply = client.batch(
            7, vm::TraceSpan(events.data(), events.size()));
    if (reply.count != events.size()) {
        std::fprintf(stderr, "smoke: bad batch reply count %u\n",
                     reply.count);
        return 1;
    }
    const auto pred = client.predict(7, 64);
    if (!pred.valid) {
        std::fprintf(stderr,
                     "smoke: predictor did not learn the stream\n");
        return 1;
    }
    const auto stats = client.tenantStats(7);
    if (!stats.has_value() || stats->total != events.size()) {
        std::fprintf(stderr, "smoke: bad tenant stats\n");
        return 1;
    }
    std::fputs(client.stats().c_str(), stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    net::VpdServerConfig config;
    config.banks.spec = "fcm3@1024/4096x4";
    bool smoke = false;
    std::string stats_tcp, stats_unix;

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--spec")) {
            config.banks.spec = argv[++i];
        } else if (arg("--stripes")) {
            config.banks.stripes =
                    static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg("--pc-group-bits")) {
            config.banks.pcGroupBits =
                    static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg("--port")) {
            config.port = static_cast<uint16_t>(std::atoi(argv[++i]));
        } else if (arg("--unix")) {
            config.unixPath = argv[++i];
        } else if (arg("--stats")) {
            stats_tcp = argv[++i];
        } else if (arg("--stats-unix")) {
            stats_unix = argv[++i];
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            return usage();
        }
    }

    try {
        if (!stats_tcp.empty() || !stats_unix.empty()) {
            net::VpdClient client;
            if (!stats_unix.empty()) {
                client = net::VpdClient::connectUnix(stats_unix);
            } else {
                const auto colon = stats_tcp.rfind(':');
                if (colon == std::string::npos)
                    return usage();
                client = net::VpdClient::connectTcp(
                        static_cast<uint16_t>(std::atoi(
                                stats_tcp.c_str() + colon + 1)));
            }
            std::fputs(client.stats().c_str(), stdout);
            return 0;
        }

        // Validate the spec before binding anything.
        exp::makePredictor(config.banks.spec);

        net::VpdServer server(config);
        server.start();

        if (smoke) {
            const int rc = smokeExchange(server);
            server.stop();
            return rc;
        }

        if (config.unixPath.empty()) {
            std::fprintf(stderr,
                         "vpd: listening on 127.0.0.1:%u "
                         "(spec=%s, stripes=%u)\n",
                         server.port(), config.banks.spec.c_str(),
                         server.banks().stripes());
        } else {
            std::fprintf(stderr,
                         "vpd: listening on %s (spec=%s)\n",
                         config.unixPath.c_str(),
                         config.banks.spec.c_str());
        }

        sigset_t set;
        sigemptyset(&set);
        sigaddset(&set, SIGINT);
        sigaddset(&set, SIGTERM);
        pthread_sigmask(SIG_BLOCK, &set, nullptr);
        int sig = 0;
        sigwait(&set, &sig);
        std::fprintf(stderr, "vpd: signal %d, stopping\n", sig);
        server.stop();
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "vpd: %s\n", error.what());
        return 1;
    }
}
