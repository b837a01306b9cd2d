/**
 * @file
 * VpdServer: prediction-as-a-service over the vpd wire protocol.
 *
 * Listens on loopback TCP (ephemeral port by default) or a Unix
 * socket and serves PREDICT / TRAIN / BATCH / STATS / TENANT_STATS
 * frames against a ShardedBankMap. Two interchangeable connection
 * engines, selected per server (vpd_loadgen benchmarks both):
 *
 *  - Engine::Thread — one blocking read/write thread per connection;
 *    the accept loop spawns and joins them. Simple, sees through to
 *    the kernel's scheduler, and on graceful stop() drains frames
 *    already received before closing.
 *  - Engine::Epoll — an accept thread dispatching connections
 *    round-robin onto N epoll event loops; nonblocking sockets,
 *    per-connection frame decoder and write queue with partial-write
 *    handling, eventfd wakeups for shutdown. Each connection lives on
 *    exactly one loop thread, so connection state needs no locks.
 *
 * Both engines share the frame dispatch (processFrame) and the
 * buffer pool; connection buffers are pooled across connection churn
 * so the steady state is allocation-free (see buffer_pool.hh).
 *
 * Protocol errors are answered with a typed ERROR frame, counted,
 * and close the offending connection; they never take the server
 * down. stop() is idempotent and safe with in-flight requests:
 * already-received frames finish (thread engine) or the loop exits
 * between frames (epoll), and vpd_server_test pins both paths.
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
#include <functional>
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

enum class Engine { Thread, Epoll };

const char *engineName(Engine engine);

struct VpdServerConfig
{
    ShardedBankConfig banks;

    Engine engine = Engine::Thread;

    /** Event loops for Engine::Epoll (>= 1). */
    unsigned epollLoops = 1;

    /** TCP port on 127.0.0.1; 0 = ephemeral (see VpdServer::port). */
    uint16_t port = 0;

    /** When non-empty: listen on this Unix socket path instead. */
    std::string unixPath;

    /** Frame length-prefix ceiling handed to every FrameDecoder. */
    uint32_t maxFrameLength = kMaxFrameLength;
};

/**
 * Test seams, run on the server's own threads; empty by default.
 * They let a test order the accept thread against the loops.
 */
struct VpdServerHooks
{
    /** Accept thread, epoll engine: a connection was accepted and is
     *  about to be handed to its loop. */
    std::function<void()> beforeHandoff;

    /** Epoll loop thread, as the loop returns. */
    std::function<void()> loopExited;
};

class VpdServer
{
  public:
    explicit VpdServer(VpdServerConfig config);
    ~VpdServer();

    VpdServer(const VpdServer &) = delete;
    VpdServer &operator=(const VpdServer &) = delete;

    /** Bind, listen and start the engine.
     *  @throws std::system_error on socket failures. */
    void start();

    /** Graceful shutdown; idempotent, safe with in-flight requests.
     *  Every accepted connection is closed when it returns. */
    void stop();

    /** Install test seams; call before start(). */
    void setHooks(VpdServerHooks hooks) { hooks_ = std::move(hooks); }

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
    struct Loop;

    void runAccept();
    void runConnThread(int fd);
    void runEpollLoop(Loop &loop);

    /** Dispatch one decoded frame; appends the reply to @p reply. */
    void processFrame(const FrameDecoder::Frame &frame,
                      std::vector<uint8_t> &reply,
                      std::vector<vm::TraceEvent> &scratch);

    void closeListener();

    VpdServerConfig config_;
    VpdServerHooks hooks_;
    ShardedBankMap banks_;
    BufferPool pool_;

    int listenFd_ = -1;
    uint16_t boundPort_ = 0;
    std::atomic<bool> running_{false};
    bool started_ = false;

    std::thread acceptThread_;

    // Thread engine state. stop() holds connMutex_ across the
    // shutdown + join + clear sweep, so the connection list is
    // lock-guarded for its whole lifetime (not merely join-ordered).
    util::Mutex connMutex_;
    std::vector<std::unique_ptr<Conn>> conns_ VP_GUARDED_BY(connMutex_);

    // Epoll engine state.
    std::vector<std::unique_ptr<Loop>> loops_;
    std::atomic<size_t> nextLoop_{0};

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
