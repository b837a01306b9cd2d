/**
 * @file
 * End-to-end tests for the vpd server: request round trips,
 * concurrent-client byte-identity against serial replay, the STATS
 * surface, typed protocol errors over the wire, client disconnect
 * mid-frame, graceful stop with in-flight requests and with a client
 * that never reads its replies (no connection left open after stop),
 * start/stop churn with clients dropping mid-stream, and Unix-socket
 * transport.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "exp/suite.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "sim/driver.hh"
#include "synth/sequences.hh"

namespace {

using namespace vp;
using vm::TraceEvent;

std::vector<TraceEvent>
sampleStream(size_t n, uint64_t seed)
{
    synth::Rng rng(seed);
    std::vector<TraceEvent> events;
    uint64_t counter = seed;
    for (size_t i = 0; i < n; ++i) {
        TraceEvent event{};
        event.op = (i % 2 == 0) ? isa::Opcode::Add : isa::Opcode::Ld;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = 8 * rng.range(48);
        event.value = (rng.range(2) == 0) ? (counter += 8)
                                          : event.pc * 5;
        events.push_back(event);
    }
    return events;
}

net::TenantStats
serialReference(const std::vector<TraceEvent> &events,
                const std::string &spec)
{
    sim::PredictorBank bank;
    bank.add(exp::makePredictor(spec));
    sim::replayTrace(events, bank);
    return net::TenantStats::from(bank.member(0).stats);
}

uint64_t
openConnections(const net::VpdServer &server)
{
    return server.statsSnapshot().gauges.at("net.connections_open");
}

class VpdServerTest : public ::testing::Test
{
  protected:
    net::VpdServerConfig
    baseConfig() const
    {
        net::VpdServerConfig config;
        config.banks.spec = "fcm3";
        return config;
    }
};

TEST_F(VpdServerTest, RoundTrips)
{
    net::VpdServer server(baseConfig());
    server.start();
    auto client = net::VpdClient::connectTcp(server.port());

    // Unseen tenant: no stats, predictions invalid.
    EXPECT_FALSE(client.tenantStats(1).has_value());

    // TRAIN runs the full protocol event by event.
    const auto events = sampleStream(600, 3);
    uint64_t predicted = 0, correct = 0;
    for (const auto &event : events) {
        const auto reply = client.train(1, event);
        predicted += reply.predicted;
        correct += reply.correct;
    }
    const auto reference = serialReference(events, "fcm3");
    const auto stats = client.tenantStats(1);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(*stats, reference);
    EXPECT_EQ(predicted, reference.predicted);
    EXPECT_EQ(correct, reference.correct);

    // PREDICT answers from the trained bank without grading stats.
    (void)client.predict(1, events.back().pc);
    EXPECT_EQ(*client.tenantStats(1), reference);

    server.stop();
}

TEST_F(VpdServerTest, BatchMatchesSerialReplay)
{
    net::VpdServer server(baseConfig());
    server.start();
    auto client = net::VpdClient::connectTcp(server.port());

    const auto events = sampleStream(5000, 5);
    uint64_t predicted = 0, correct = 0;
    for (size_t i = 0; i < events.size(); i += 512) {
        const size_t n = std::min<size_t>(512, events.size() - i);
        const auto reply = client.batch(
                7, vm::TraceSpan(events.data() + i, n));
        EXPECT_EQ(reply.count, n);
        predicted += reply.predicted;
        correct += reply.correct;
    }
    const auto reference = serialReference(events, "fcm3");
    EXPECT_EQ(*client.tenantStats(7), reference);
    EXPECT_EQ(predicted, reference.predicted);
    EXPECT_EQ(correct, reference.correct);
    server.stop();
}

TEST_F(VpdServerTest, ConcurrentClientsByteIdentical)
{
    // The acceptance bar: >= 4 concurrent clients, each replaying its
    // own stream as its own tenant; server-side per-tenant statistics
    // must equal the serial single-bank replay exactly.
    constexpr unsigned kClients = 5;
    net::VpdServer server(baseConfig());
    server.start();

    std::vector<std::vector<TraceEvent>> streams;
    for (unsigned c = 0; c < kClients; ++c)
        streams.push_back(sampleStream(4000, 50 + c));

    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (unsigned c = 0; c < kClients; ++c) {
        workers.emplace_back([&, c] {
            try {
                auto client =
                        net::VpdClient::connectTcp(server.port());
                const auto &events = streams[c];
                for (size_t i = 0; i < events.size(); i += 256) {
                    const size_t n =
                            std::min<size_t>(256, events.size() - i);
                    client.batch(c, vm::TraceSpan(events.data() + i,
                                                  n));
                }
            } catch (...) {
                ++failures;
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(failures.load(), 0);

    auto checker = net::VpdClient::connectTcp(server.port());
    for (unsigned c = 0; c < kClients; ++c) {
        const auto stats = checker.tenantStats(c);
        ASSERT_TRUE(stats.has_value()) << "tenant " << c;
        EXPECT_EQ(*stats, serialReference(streams[c], "fcm3"))
                << "tenant " << c;
    }
    server.stop();
}

TEST_F(VpdServerTest, StatsSurface)
{
    net::VpdServer server(baseConfig());
    server.start();
    auto client = net::VpdClient::connectTcp(server.port());

    const auto events = sampleStream(256, 9);
    client.batch(1, vm::TraceSpan(events.data(), events.size()));
    (void)client.predict(1, events[0].pc);

    const std::string text = client.stats();
    EXPECT_NE(text.find("net.connections 1"), std::string::npos)
            << text;
    EXPECT_NE(text.find("net.frames.batch 1"), std::string::npos);
    EXPECT_NE(text.find("net.frames.predict 1"), std::string::npos);
    EXPECT_NE(text.find("net.batch_events 256"), std::string::npos);
    EXPECT_NE(text.find("net.protocol_errors 0"), std::string::npos);
    EXPECT_NE(text.find("net.bytes_in"), std::string::npos);
    EXPECT_NE(text.find("net.bytes_out"), std::string::npos);
    EXPECT_NE(text.find("pool.acquires"), std::string::npos);
    EXPECT_NE(text.find("shard.banks 1"), std::string::npos);
    EXPECT_NE(text.find("shard.contentions"), std::string::npos);

    // The same numbers through the in-process snapshot API.
    const auto snapshot = server.statsSnapshot();
    EXPECT_EQ(snapshot.counter("net.batch_events"), 256u);
    EXPECT_EQ(snapshot.counter("net.frames.batch"), 1u);
    server.stop();
}

TEST_F(VpdServerTest, UnknownOpcodeAnswersTypedErrorAndServerSurvives)
{
    net::VpdServer server(baseConfig());
    server.start();
    {
        auto client = net::VpdClient::connectTcp(server.port());
        std::vector<uint8_t> bad;
        net::putU32(bad, 1);
        net::putU8(bad, 0x42);      // not an opcode
        client.sendRaw(bad.data(), bad.size());
        const auto reply = client.readFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->op, net::Op::Error);
        const auto error = net::decodeErrorReply(
                std::span<const uint8_t>(reply->payload));
        EXPECT_EQ(error.code, net::ProtoError::UnknownOpcode);
        // The server closes the broken connection.
        EXPECT_FALSE(client.readFrame().has_value());
    }
    {
        // Zero length prefix: BadLength.
        auto client = net::VpdClient::connectTcp(server.port());
        const uint8_t zero[4] = {0, 0, 0, 0};
        client.sendRaw(zero, sizeof(zero));
        const auto reply = client.readFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(net::decodeErrorReply(
                          std::span<const uint8_t>(reply->payload))
                          .code,
                  net::ProtoError::BadLength);
    }
    {
        // Oversized length prefix: Oversized.
        auto client = net::VpdClient::connectTcp(server.port());
        std::vector<uint8_t> huge;
        net::putU32(huge, net::kMaxFrameLength + 1);
        client.sendRaw(huge.data(), huge.size());
        const auto reply = client.readFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(net::decodeErrorReply(
                          std::span<const uint8_t>(reply->payload))
                          .code,
                  net::ProtoError::Oversized);
    }
    {
        // Truncated payload inside a well-framed message: Truncated,
        // surfaced through the client as a typed ProtocolError.
        auto client = net::VpdClient::connectTcp(server.port());
        std::vector<uint8_t> bad;
        net::putU32(bad, 1 + 8);    // PREDICT needs 16 payload bytes
        net::putU8(bad, static_cast<uint8_t>(net::Op::Predict));
        net::putU64(bad, 1);
        client.sendRaw(bad.data(), bad.size());
        const auto reply = client.readFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(net::decodeErrorReply(
                          std::span<const uint8_t>(reply->payload))
                          .code,
                  net::ProtoError::Truncated);
    }

    // After all that abuse the server still serves new clients.
    auto client = net::VpdClient::connectTcp(server.port());
    const auto events = sampleStream(64, 2);
    const auto reply =
            client.batch(3, vm::TraceSpan(events.data(), events.size()));
    EXPECT_EQ(reply.count, events.size());
    const auto snapshot = server.statsSnapshot();
    EXPECT_EQ(snapshot.counter("net.protocol_errors"), 4u);
    server.stop();
}

TEST_F(VpdServerTest, ClientDisconnectMidFrameIsHarmless)
{
    net::VpdServer server(baseConfig());
    server.start();
    {
        auto client = net::VpdClient::connectTcp(server.port());
        // Announce a 1000-byte frame, send only a sliver, vanish.
        std::vector<uint8_t> partial;
        net::putU32(partial, 1000);
        net::putU8(partial, static_cast<uint8_t>(net::Op::Batch));
        net::putU64(partial, 1);
        client.sendRaw(partial.data(), partial.size());
        client.close();
    }
    // The server shrugs it off and keeps serving.
    auto client = net::VpdClient::connectTcp(server.port());
    const auto events = sampleStream(128, 7);
    EXPECT_EQ(client.batch(1, vm::TraceSpan(events.data(),
                                            events.size()))
                      .count,
              events.size());
    server.stop();
}

TEST_F(VpdServerTest, StopWithInFlightRequestsDoesNotHang)
{
    net::VpdServer server(baseConfig());
    server.start();

    constexpr unsigned kClients = 4;
    std::atomic<bool> stopSending{false};
    std::atomic<uint64_t> completed{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < kClients; ++c) {
        workers.emplace_back([&, c] {
            try {
                auto client =
                        net::VpdClient::connectTcp(server.port());
                const auto events = sampleStream(512, 80 + c);
                while (!stopSending.load()) {
                    client.batch(c, vm::TraceSpan(events.data(),
                                                  events.size()));
                    ++completed;
                }
            } catch (...) {
                // Expected once the server stops under our feet.
            }
        });
    }
    // Let traffic build, then stop with requests in flight.
    while (completed.load() < 8)
        std::this_thread::yield();
    server.stop();
    stopSending.store(true);
    for (auto &worker : workers)
        worker.join();
    EXPECT_GE(completed.load(), 8u);
    EXPECT_EQ(openConnections(server), 0u);
    // Idempotent.
    server.stop();
}

/**
 * Lifecycle churn: repeated start/stop cycles. In each, clients
 * connect, complete one BATCH frame and then vanish halfway through
 * the next one; one more client still holds its half frame when
 * stop() runs. Every stop() must leave no connection open, and the
 * held client must find its connection closed rather than block. A
 * hang is bounded by the per-case ctest TIMEOUT (tests/CMakeLists.txt),
 * and scripts/ci.sh runs the case under TSan.
 */
TEST_F(VpdServerTest, StartStopChurnWithClientsDroppingMidStream)
{
    constexpr int kCycles = 20;
    constexpr unsigned kClients = 3;
    const auto events = sampleStream(256, 21);
    const vm::TraceSpan span(events.data(), events.size());
    // A frame header promising far more payload than ever follows.
    std::vector<uint8_t> half;
    net::putU32(half, 4096);
    net::putU8(half, static_cast<uint8_t>(net::Op::Batch));
    net::putU64(half, 1);

    for (int cycle = 0; cycle < kCycles; ++cycle) {
        net::VpdServer server(baseConfig());
        server.start();

        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                try {
                    auto client =
                            net::VpdClient::connectTcp(server.port());
                    EXPECT_EQ(client.batch(c, span).count,
                              events.size());
                    client.sendRaw(half.data(), half.size());
                    client.close();
                } catch (const std::exception &error) {
                    ADD_FAILURE() << "client " << c << ": "
                                  << error.what();
                }
            });
        }
        for (auto &client : clients)
            client.join();

        auto held = net::VpdClient::connectTcp(server.port());
        EXPECT_EQ(held.batch(kClients, span).count, events.size());
        held.sendRaw(half.data(), half.size());

        server.stop();
        EXPECT_EQ(openConnections(server), 0u) << "cycle " << cycle;

        bool closed = false;
        try {
            closed = !held.readFrame().has_value();
        } catch (const std::exception &) {
            closed = true;      // a reset instead of a FIN: closed too
        }
        EXPECT_TRUE(closed) << "cycle " << cycle;
    }
}

TEST_F(VpdServerTest, UnixSocketTransport)
{
    const std::string path =
            (std::filesystem::temp_directory_path() /
             "vpd-server-test.sock")
                    .string();
    std::filesystem::remove(path);

    auto config = baseConfig();
    config.unixPath = path;
    net::VpdServer server(config);
    server.start();

    auto client = net::VpdClient::connectUnix(path);
    const auto events = sampleStream(2000, 15);
    for (size_t i = 0; i < events.size(); i += 256) {
        const size_t n = std::min<size_t>(256, events.size() - i);
        client.batch(4, vm::TraceSpan(events.data() + i, n));
    }
    EXPECT_EQ(*client.tenantStats(4), serialReference(events, "fcm3"));
    server.stop();
    std::filesystem::remove(path);
}

/**
 * A client that sends STATS frames and never reads a reply fills its
 * receive buffer and then the server's send buffer, until its
 * connection thread blocks in send(). stop() must still return:
 * shutting down only the read side does not wake that send(). The
 * 10 s bound turns a hang into a failure, and closing the client
 * afterwards releases a stuck stop(), so the case ends either way.
 */
TEST_F(VpdServerTest, StopWithAClientThatNeverReadsDoesNotHang)
{
    net::VpdServer server(baseConfig());
    server.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    std::vector<uint8_t> frames;
    for (int i = 0; i < 64; ++i)
        net::encodeStats(frames);

    // Send until the socket accepts nothing more for 2 s: the server
    // has stopped reading because its reply write is blocked. The
    // buffer repeats one frame, so resuming a partial send at its
    // offset keeps the stream framed.
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    bool stalled = false;
    size_t off = 0;
    while (!stalled && Clock::now() < deadline) {
        pollfd pfd{fd, POLLOUT, 0};
        stalled = ::poll(&pfd, 1, 2000) == 0;
        if (stalled)
            continue;
        const ssize_t n = ::send(fd, frames.data() + off,
                                 frames.size() - off,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        ASSERT_TRUE(n > 0 || errno == EAGAIN) << std::strerror(errno);
        if (n > 0)
            off = (off + static_cast<size_t>(n)) % frames.size();
    }
    EXPECT_TRUE(stalled) << "the server kept draining for 60 s";

    auto stopped = std::async(std::launch::async, [&] { server.stop(); });
    EXPECT_EQ(stopped.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
            << "stop() blocked on a client that never reads";
    ::close(fd);
    stopped.get();
    EXPECT_EQ(openConnections(server), 0u);
}

} // namespace
