/**
 * @file
 * VpdServer: prediction-as-a-service over the vpd wire protocol.
 *
 * Listens on loopback TCP (ephemeral port by default) or a Unix
 * socket and serves PREDICT / TRAIN / BATCH / STATS / TENANT_STATS
 * frames against a ShardedBankMap with one thread-per-connection
 * engine: the accept loop spawns a blocking read/write thread per
 * connection and reaps it once it finishes. Blocking writes give
 * backpressure for free: a client that stops reading its replies
 * stalls its own thread in send() instead of growing a server-side
 * queue. Connection buffers are pooled across connection churn so
 * the steady state is allocation-free (see buffer_pool.hh).
 *
 * Protocol errors are answered with a typed ERROR frame, counted,
 * and close the offending connection; they never take the server
 * down. stop() is idempotent and cannot hang on a client: it shuts
 * every connection down in both directions, which wakes a thread
 * blocked in recv() or in send() to a peer that stopped reading.
 * Frames already received still run against the banks; only their
 * replies are dropped. vpd_server_test pins both cases.
 *
 * The STATS surface is an obs::Registry snapshot: serve-side
 * counters are plain atomics (a live server cannot use unsynchronised
 * per-thread registry shards — a snapshot may race active frames),
 * imported into a Registry at STATS time so the reply, `vpd --stats`
 * and the loadgen all render one obs::Snapshot the same way.
 */

#ifndef VP_NET_SERVER_HH
#define VP_NET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/buffer_pool.hh"
#include "net/protocol.hh"
#include "net/sharded_bank.hh"
#include "obs/registry.hh"
#include "util/mutex.hh"

namespace vp::net {

struct VpdServerConfig
{
    ShardedBankConfig banks;

    /** TCP port on 127.0.0.1; 0 = ephemeral (see VpdServer::port). */
    uint16_t port = 0;

    /** When non-empty: listen on this Unix socket path instead. */
    std::string unixPath;

    /** Frame length-prefix ceiling handed to every FrameDecoder. */
    uint32_t maxFrameLength = kMaxFrameLength;
};

class VpdServer
{
  public:
    explicit VpdServer(VpdServerConfig config);
    ~VpdServer();

    VpdServer(const VpdServer &) = delete;
    VpdServer &operator=(const VpdServer &) = delete;

    /** Bind, listen and start accepting.
     *  @throws std::system_error on socket failures. */
    void start();

    /** Graceful shutdown; idempotent, safe with in-flight requests.
     *  Shuts every connection down both ways (SHUT_RDWR), so it
     *  returns even when a client has stopped reading: frames
     *  already received still train the banks, but their replies
     *  are dropped. Every accepted connection is closed when it
     *  returns. */
    void stop();

    /** The bound TCP port (after start(); 0 for Unix servers). */
    uint16_t port() const { return boundPort_; }

    const ShardedBankMap &banks() const { return banks_; }
    ShardedBankMap &banks() { return banks_; }

    /**
     * Server counters as one obs::Snapshot: net.* (connections,
     * frames by opcode, bytes in/out, protocol errors), pool.*
     * (acquires/reuses) and shard.* (banks, stripes, contentions).
     * This is exactly what the STATS reply renders.
     */
    obs::Snapshot statsSnapshot() const;

  private:
    struct Conn;

    void runAccept();
    void runConnThread(int fd);

    /** Dispatch one decoded frame; appends the reply to @p reply. */
    void processFrame(const FrameDecoder::Frame &frame,
                      std::vector<uint8_t> &reply,
                      std::vector<vm::TraceEvent> &scratch);

    void closeListener();

    VpdServerConfig config_;
    ShardedBankMap banks_;
    BufferPool pool_;

    int listenFd_ = -1;
    uint16_t boundPort_ = 0;
    std::atomic<bool> running_{false};
    bool started_ = false;

    std::thread acceptThread_;

    // One entry per accepted connection until it is reaped. stop()
    // holds connMutex_ across its shutdown + join + clear sweep.
    util::Mutex connMutex_;
    std::vector<std::unique_ptr<Conn>> conns_ VP_GUARDED_BY(connMutex_);

    // Serve-side counters (atomics: see file comment).
    std::atomic<uint64_t> acceptedConns_{0};
    std::atomic<uint64_t> openConns_{0};
    std::atomic<uint64_t> frames_{0};
    std::atomic<uint64_t> framesPredict_{0};
    std::atomic<uint64_t> framesTrain_{0};
    std::atomic<uint64_t> framesBatch_{0};
    std::atomic<uint64_t> framesStats_{0};
    std::atomic<uint64_t> batchEvents_{0};
    std::atomic<uint64_t> bytesIn_{0};
    std::atomic<uint64_t> bytesOut_{0};
    std::atomic<uint64_t> protocolErrors_{0};
};

/**
 * Render a snapshot as the STATS reply text: one sorted
 * "name value" line per counter/gauge (histograms: count/mean/max) —
 * shared by the STATS frame handler and `vpd --stats`.
 */
std::string renderSnapshot(const obs::Snapshot &snapshot);

} // namespace vp::net

#endif // VP_NET_SERVER_HH
