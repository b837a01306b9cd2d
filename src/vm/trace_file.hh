/**
 * @file
 * Value-trace file formats: record a trace once, replay it into
 * predictor banks many times.
 *
 * The original study was trace-driven (SimpleScalar traces); this is
 * the equivalent facility. Two on-disk formats share one event
 * encoding (delta + varint):
 *
 * VPT1 — flat stream, the original format (still fully readable):
 *
 *   header:  magic "VPT1" | u32 reserved | u64 event count
 *   events:  per event, delta-encoded:
 *            u8  tag  = (opcode)
 *            varint pc-delta (zig-zag)  | varint value (raw LEB128)
 *
 * VPT2 — blocked, compressed; the campaign format written by the
 * suite trace cache (see README "Trace files"):
 *
 *   header:  magic "VPT2" | u32 flags | u64 reserved
 *   blocks:  u32 events (>0) | u32 rawBytes | u32 encBytes
 *            | u8 codec (0 raw, 1 zlib deflate) | encBytes payload
 *            — each block is self-contained: the pc-delta chain
 *            restarts (lastPc = 0) at every block boundary.
 *   endmark: u32 0 (a real block never holds zero events)
 *   index:   u64 blockCount
 *            | per block: u64 fileOffset | u64 firstEvent | u32 events
 *   trailer: u64 indexOffset | u64 totalEvents | magic "VP2X"
 *
 * The writer never seeks (counts live in the trailer), so VPT2 can be
 * written to a pipe. A reader on a seekable stream validates the index
 * and trailer against the file size before the first block; one on a
 * non-seekable stream verifies them when it reaches them.
 *
 * PC deltas and LEB128 exploit trace locality; typical traces shrink
 * to a few bytes per event, and the per-block deflate pass shrinks
 * VPT2 well below VPT1 (pinned by trace_file_test when zlib is in).
 */

#ifndef VP_VM_TRACE_FILE_HH
#define VP_VM_TRACE_FILE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "vm/trace.hh"

namespace vp::vm {

/** Error thrown on malformed trace files. */
struct TraceFileError : std::runtime_error
{
    explicit TraceFileError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/** True when this build can deflate/inflate VPT2 blocks (zlib). */
bool traceFileZlibAvailable();

/**
 * Streaming VPT1 trace writer; usable directly as the VM's TraceSink.
 *
 * @code
 *   std::ofstream out("gcc.vpt", std::ios::binary);
 *   TraceWriter writer(out);
 *   machine.setSink(&writer);
 *   machine.run(prog);
 *   writer.finish();             // backpatches the event count
 * @endcode
 */
class TraceWriter : public TraceSink
{
  public:
    explicit TraceWriter(std::ostream &out);

    void onValue(const TraceEvent &event) override;

    /**
     * Flush and backpatch the header. Must be called once.
     * @throws TraceFileError if the backpatch seek or write fails
     * (e.g. a non-seekable pipe sink) — without it the header count
     * would silently stay 0 and every event would be dropped on
     * replay. Use Vpt2Writer for non-seekable sinks.
     */
    void finish();

    uint64_t eventCount() const { return count_; }

  private:
    std::ostream &out_;
    uint64_t count_ = 0;
    uint64_t lastPc_ = 0;
    bool finished_ = false;
};

/**
 * Streaming VPT2 trace writer: fixed-size self-contained blocks, a
 * block-index footer, optional per-block deflate. Never seeks, so
 * any ostream (including a pipe) works as the sink.
 */
class Vpt2Writer : public TraceSink
{
  public:
    /**
     * @param blockEvents events per block; the default matches the
     *        replay batch size.
     * @param compress deflate blocks when zlib is available and the
     *        deflated form is smaller (blocks record their own codec,
     *        so mixed files are fine).
     */
    explicit Vpt2Writer(std::ostream &out, size_t blockEvents = 4096,
                        bool compress = true);

    void onValue(const TraceEvent &event) override;

    /**
     * Flush the final partial block, then write the end marker, the
     * block index and the trailer. Must be called once.
     * @throws TraceFileError when the sink rejects the writes.
     */
    void finish();

    uint64_t eventCount() const { return count_; }
    size_t blockCount() const { return index_.size(); }

  private:
    void flushBlock();

    struct IndexEntry
    {
        uint64_t offset;        ///< file offset of the block header
        uint64_t firstEvent;    ///< global index of its first event
        uint32_t events;        ///< events in the block
    };

    std::ostream &out_;
    size_t blockEvents_;
    bool compress_;
    std::string raw_;           ///< current block payload, uncompressed
    uint32_t blockN_ = 0;       ///< events in the current block
    uint64_t lastPc_ = 0;       ///< restarts at every block boundary
    uint64_t count_ = 0;
    uint64_t offset_ = 0;       ///< running file offset (no tellp)
    std::vector<IndexEntry> index_;
    bool finished_ = false;
};

/**
 * Cumulative I/O work a cursor has performed, for the harness's trace
 * I/O telemetry (vpexp --stats / the per-cell counters block). Only
 * the blocked VPT2 format has block/compression structure to report;
 * a VPT1 cursor returns the all-zero default. The deflate ratio is
 * encBytes / rawBytes over the deflated blocks actually read.
 */
struct TraceIoStats
{
    uint64_t blocksRead = 0;        ///< blocks decoded (re-reads count)
    uint64_t rawBytes = 0;          ///< decoded payload bytes
    uint64_t encBytes = 0;          ///< on-disk payload bytes
    uint64_t deflatedBlocks = 0;    ///< blocksRead that were deflated
};

/**
 * Format-independent read cursor over a recorded trace. Concrete
 * cursors are TraceReader (VPT1) and Vpt2Reader (VPT2); openTrace()
 * sniffs the magic and returns the right one.
 */
class TraceCursor
{
  public:
    virtual ~TraceCursor() = default;

    /**
     * Number of events promised by the file. For a VPT2 stream that
     * cannot seek, the trailer has not been read yet and this is 0
     * until the cursor reaches the end of the trace.
     */
    virtual uint64_t eventCount() const = 0;

    /**
     * Read the next event.
     *
     * @return false at end of trace.
     * @throws TraceFileError on corruption.
     */
    virtual bool next(TraceEvent &event) = 0;

    /**
     * Decode up to @p max events into @p out (the block-buffered read
     * batched replay streams from). Returns the number decoded; 0 at
     * end of trace.
     */
    virtual size_t
    readBatch(TraceEvent *out, size_t max)
    {
        size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /**
     * Verify the stream ends exactly where the format says it should:
     * every promised event was consumed and no trailing bytes follow.
     * Call after next() has returned false.
     *
     * @throws TraceFileError on trailing garbage or a short trace.
     */
    virtual void expectEnd() = 0;

    /** Cumulative I/O counters; zeroes for formats without block
     *  structure. Purely observational. */
    virtual TraceIoStats ioStats() const { return {}; }

    /** Replay the remaining events into @p sink; returns the count. */
    uint64_t replay(TraceSink &sink);

    /**
     * Replay the remaining events as TraceSink::onBatch spans of
     * @p batch events, decoding through one reused block buffer —
     * bounded memory regardless of trace length. Returns the count.
     */
    uint64_t replayBatched(TraceSink &sink, size_t batch = 4096);
};

/** Constructor tag: the caller already consumed the 4 magic bytes. */
struct MagicConsumed
{};

/**
 * Streaming VPT1 trace reader: replays a recorded trace into a sink.
 */
class TraceReader : public TraceCursor
{
  public:
    explicit TraceReader(std::istream &in);
    TraceReader(std::istream &in, MagicConsumed);

    uint64_t eventCount() const override { return count_; }
    bool next(TraceEvent &event) override;
    size_t readBatch(TraceEvent *out, size_t max) override;
    void expectEnd() override;

  private:
    void readHeader();

    std::istream &in_;
    uint64_t count_ = 0;
    uint64_t seen_ = 0;
    uint64_t lastPc_ = 0;
};

/**
 * VPT2 trace reader. On a seekable stream the index and trailer are
 * validated against the file size up front, so the event count is
 * known before the first block; on a non-seekable stream the cursor
 * verifies the index and trailer when it reaches them.
 */
class Vpt2Reader : public TraceCursor
{
  public:
    explicit Vpt2Reader(std::istream &in);
    Vpt2Reader(std::istream &in, MagicConsumed);

    uint64_t eventCount() const override { return total_; }
    bool next(TraceEvent &event) override;
    void expectEnd() override;

    /** True when the index and trailer were validated up front
     *  (seekable stream). */
    bool indexed() const { return indexed_; }

    /** Blocks decoded, payload bytes and deflated-block counts. */
    TraceIoStats ioStats() const override;

  private:
    void readHeader();
    bool loadIndex();
    bool openBlock();
    void finishStream();
    void decodeEvent(TraceEvent &event);

    std::istream &in_;
    bool indexed_ = false;
    bool ended_ = false;
    uint64_t total_ = 0;        ///< trailer count (0 until known)
    uint64_t pos_ = 0;          ///< global index of the next event
    uint64_t lastPc_ = 0;       ///< restarts per block
    uint64_t blocksSeen_ = 0;
    uint64_t ioRawBytes_ = 0;
    uint64_t ioEncBytes_ = 0;
    uint64_t ioDeflatedBlocks_ = 0;

    std::string enc_;           ///< encoded (possibly deflated) block
    std::string rawBuf_;        ///< decoded block payload
    const uint8_t *p_ = nullptr;
    const uint8_t *end_ = nullptr;
    uint32_t blockRemaining_ = 0;
};

/**
 * Open a trace for reading, auto-detecting VPT1 vs VPT2 from the
 * 4-byte magic.
 */
std::unique_ptr<TraceCursor> openTrace(std::istream &in);

/**
 * TraceBatchSource streaming from any TraceCursor through one reused
 * block buffer: long traces replay in bounded memory instead of being
 * materialised by readTraceFile.
 */
class ReaderBatchSource : public TraceBatchSource
{
  public:
    explicit ReaderBatchSource(TraceCursor &reader, size_t batch = 4096)
        : reader_(reader), block_(batch == 0 ? 1 : batch)
    {
    }

    TraceSpan
    nextBatch() override
    {
        const size_t n = reader_.readBatch(block_.data(), block_.size());
        return TraceSpan(block_.data(), n);
    }

  private:
    TraceCursor &reader_;
    std::vector<TraceEvent> block_;
};

/** Convenience: record a whole event vector to a VPT1 file. */
void writeTraceFile(const std::string &path,
                    const std::vector<TraceEvent> &events);

/** Convenience: record a whole event vector to a VPT2 file. */
void writeTraceFileVpt2(const std::string &path,
                        const std::vector<TraceEvent> &events,
                        size_t blockEvents = 4096, bool compress = true);

/** Convenience: load a whole trace file (either format) into memory. */
std::vector<TraceEvent> readTraceFile(const std::string &path);

} // namespace vp::vm

#endif // VP_VM_TRACE_FILE_HH
