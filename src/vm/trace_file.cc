#include "vm/trace_file.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#if VP_HAVE_ZLIB
#include <zlib.h>
#endif

namespace vp::vm {

namespace {

constexpr char magic1[4] = {'V', 'P', 'T', '1'};
constexpr char magic2[4] = {'V', 'P', 'T', '2'};
constexpr char trailerMagic[4] = {'V', 'P', '2', 'X'};

constexpr uint8_t codecRaw = 0;
constexpr uint8_t codecZlib = 1;

/** u32 events | u32 rawBytes | u32 encBytes | u8 codec. */
constexpr size_t blockHeaderBytes = 4 + 4 + 4 + 1;
/** u64 offset | u64 firstEvent | u32 events. */
constexpr size_t indexEntryBytes = 8 + 8 + 4;
/** u64 indexOffset | u64 totalEvents | magic. */
constexpr size_t trailerBytes = 8 + 8 + 4;
constexpr size_t headerBytes = 16;

void
writeU32(std::ostream &out, uint32_t value)
{
    char bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>(value >> (8 * i));
    out.write(bytes, 4);
}

void
writeU64(std::ostream &out, uint64_t value)
{
    char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>(value >> (8 * i));
    out.write(bytes, 8);
}

uint32_t
readU32(std::istream &in, const char *what = "trace header")
{
    char bytes[4];
    in.read(bytes, 4);
    if (!in)
        throw TraceFileError(std::string("truncated ") + what);
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<uint32_t>(
                         static_cast<uint8_t>(bytes[i]))
                << (8 * i);
    return value;
}

uint64_t
readU64(std::istream &in, const char *what = "trace header")
{
    char bytes[8];
    in.read(bytes, 8);
    if (!in)
        throw TraceFileError(std::string("truncated ") + what);
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<uint64_t>(
                         static_cast<uint8_t>(bytes[i]))
                << (8 * i);
    return value;
}

void
writeVarint(std::ostream &out, uint64_t value)
{
    while (value >= 0x80) {
        out.put(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    out.put(static_cast<char>(value));
}

void
appendVarint(std::string &out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

uint64_t
readVarint(std::istream &in)
{
    uint64_t value = 0;
    int shift = 0;
    while (true) {
        const int byte = in.get();
        if (byte == std::istream::traits_type::eof())
            throw TraceFileError("truncated varint");
        // The 10th byte sits at shift 63: only its lowest bit still
        // fits in a uint64. Any higher payload bit would be silently
        // shifted out, decoding to a wrong value — reject it.
        if (shift == 63 && (byte & 0x7e) != 0)
            throw TraceFileError("varint overflow");
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
        shift += 7;
        if (shift >= 64)
            throw TraceFileError("varint overflow");
    }
}

/** In-memory variant for decoded VPT2 block payloads. */
const uint8_t *
readVarint(const uint8_t *p, const uint8_t *end, uint64_t &value)
{
    value = 0;
    int shift = 0;
    while (true) {
        if (p == end)
            throw TraceFileError("truncated varint");
        const uint8_t byte = *p++;
        if (shift == 63 && (byte & 0x7e) != 0)
            throw TraceFileError("varint overflow");
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return p;
        shift += 7;
        if (shift >= 64)
            throw TraceFileError("varint overflow");
    }
}

uint64_t
zigZag(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1) ^
           static_cast<uint64_t>(value >> 63);
}

int64_t
unZigZag(uint64_t value)
{
    return static_cast<int64_t>(value >> 1) ^
           -static_cast<int64_t>(value & 1);
}

void
validateTag(int tag, TraceEvent &event)
{
    if (tag < 0 || tag >= isa::numOpcodes)
        throw TraceFileError("bad opcode tag in trace");
    event.op = static_cast<isa::Opcode>(tag);
    event.cat = isa::opcodeCategory(event.op);
    if (!isa::isPredictedCategory(event.cat))
        throw TraceFileError("non-predicted opcode in trace");
}

} // anonymous namespace

bool
traceFileZlibAvailable()
{
#if VP_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

// --------------------------------------------------------- TraceCursor

uint64_t
TraceCursor::replay(TraceSink &sink)
{
    TraceEvent event{};
    uint64_t n = 0;
    while (next(event)) {
        sink.onValue(event);
        ++n;
    }
    return n;
}

uint64_t
TraceCursor::replayBatched(TraceSink &sink, size_t batch)
{
    std::vector<TraceEvent> block(batch == 0 ? 1 : batch);
    uint64_t n = 0;
    for (;;) {
        const size_t got = readBatch(block.data(), block.size());
        if (got == 0)
            return n;
        sink.onBatch(TraceSpan(block.data(), got));
        n += got;
    }
}

// --------------------------------------------------------- TraceWriter

TraceWriter::TraceWriter(std::ostream &out) : out_(out)
{
    out_.write(magic1, 4);
    writeU32(out_, 0);              // reserved
    writeU64(out_, 0);              // event count, backpatched
}

void
TraceWriter::onValue(const TraceEvent &event)
{
    out_.put(static_cast<char>(event.op));
    // Subtract as uint64 (well-defined wraparound), then reinterpret
    // as the signed delta: identical encoding, but no signed overflow
    // for PCs on opposite ends of the 64-bit range.
    writeVarint(out_, zigZag(static_cast<int64_t>(event.pc - lastPc_)));
    writeVarint(out_, event.value);
    lastPc_ = event.pc;
    ++count_;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    out_.flush();
    if (!out_)
        throw TraceFileError("failed flushing trace stream");
    out_.seekp(8);
    if (!out_) {
        // A pipe (or any non-seekable sink) lands here: without the
        // backpatch the header would claim 0 events and replay would
        // silently drop the whole trace.
        throw TraceFileError(
                "cannot seek to backpatch VPT1 event count "
                "(non-seekable sink? use Vpt2Writer)");
    }
    writeU64(out_, count_);
    out_.seekp(0, std::ios::end);
    out_.flush();
    if (!out_)
        throw TraceFileError("failed backpatching VPT1 event count");
}

// --------------------------------------------------------- Vpt2Writer

Vpt2Writer::Vpt2Writer(std::ostream &out, size_t blockEvents,
                       bool compress)
    : out_(out), blockEvents_(std::max<size_t>(1, blockEvents)),
      compress_(compress)
{
    out_.write(magic2, 4);
    writeU32(out_, 0);              // flags
    writeU64(out_, 0);              // reserved (count lives in trailer)
    offset_ = headerBytes;
}

void
Vpt2Writer::onValue(const TraceEvent &event)
{
    raw_.push_back(static_cast<char>(event.op));
    appendVarint(raw_, zigZag(static_cast<int64_t>(event.pc - lastPc_)));
    appendVarint(raw_, event.value);
    lastPc_ = event.pc;
    ++count_;
    ++blockN_;
    if (blockN_ >= blockEvents_)
        flushBlock();
}

void
Vpt2Writer::flushBlock()
{
    if (blockN_ == 0)
        return;

    uint8_t codec = codecRaw;
    const std::string *payload = &raw_;
    std::string deflated;
#if VP_HAVE_ZLIB
    if (compress_) {
        uLongf bound = compressBound(static_cast<uLong>(raw_.size()));
        deflated.resize(bound);
        const int rc = compress2(
                reinterpret_cast<Bytef *>(deflated.data()), &bound,
                reinterpret_cast<const Bytef *>(raw_.data()),
                static_cast<uLong>(raw_.size()), Z_DEFAULT_COMPRESSION);
        if (rc == Z_OK && bound < raw_.size()) {
            deflated.resize(bound);
            payload = &deflated;
            codec = codecZlib;
        }
    }
#endif

    index_.push_back(IndexEntry{offset_, count_ - blockN_, blockN_});
    writeU32(out_, blockN_);
    writeU32(out_, static_cast<uint32_t>(raw_.size()));
    writeU32(out_, static_cast<uint32_t>(payload->size()));
    out_.put(static_cast<char>(codec));
    out_.write(payload->data(),
               static_cast<std::streamsize>(payload->size()));
    offset_ += blockHeaderBytes + payload->size();

    raw_.clear();
    blockN_ = 0;
    lastPc_ = 0;        // every block is self-contained
}

void
Vpt2Writer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flushBlock();

    writeU32(out_, 0);              // end-of-blocks marker
    offset_ += 4;
    const uint64_t index_offset = offset_;
    writeU64(out_, index_.size());
    for (const auto &entry : index_) {
        writeU64(out_, entry.offset);
        writeU64(out_, entry.firstEvent);
        writeU32(out_, entry.events);
    }
    writeU64(out_, index_offset);
    writeU64(out_, count_);
    out_.write(trailerMagic, 4);
    out_.flush();
    if (!out_)
        throw TraceFileError("failed writing VPT2 index trailer");
}

// --------------------------------------------------------- TraceReader

TraceReader::TraceReader(std::istream &in) : in_(in)
{
    char header[4];
    in_.read(header, 4);
    if (!in_ || std::memcmp(header, magic1, 4) != 0)
        throw TraceFileError("not a VPT1 trace file");
    readHeader();
}

TraceReader::TraceReader(std::istream &in, MagicConsumed) : in_(in)
{
    readHeader();
}

void
TraceReader::readHeader()
{
    readU32(in_);                   // reserved
    count_ = readU64(in_);
}

bool
TraceReader::next(TraceEvent &event)
{
    if (seen_ >= count_)
        return false;
    const int tag = in_.get();
    if (tag == std::istream::traits_type::eof())
        throw TraceFileError("trace shorter than its header claims");
    validateTag(tag, event);
    const int64_t delta = unZigZag(readVarint(in_));
    event.pc = lastPc_ + static_cast<uint64_t>(delta);
    event.value = readVarint(in_);
    lastPc_ = event.pc;
    ++seen_;
    return true;
}

size_t
TraceReader::readBatch(TraceEvent *out, size_t max)
{
    size_t n = 0;
    while (n < max && next(out[n]))
        ++n;
    return n;
}

void
TraceReader::expectEnd()
{
    if (seen_ < count_)
        throw TraceFileError("trace ends before its promised count");
    if (in_.peek() != std::istream::traits_type::eof()) {
        throw TraceFileError(
                "trailing bytes after the promised event count");
    }
}

// --------------------------------------------------------- Vpt2Reader

Vpt2Reader::Vpt2Reader(std::istream &in) : in_(in)
{
    char header[4];
    in_.read(header, 4);
    if (!in_ || std::memcmp(header, magic2, 4) != 0)
        throw TraceFileError("not a VPT2 trace file");
    readHeader();
}

Vpt2Reader::Vpt2Reader(std::istream &in, MagicConsumed) : in_(in)
{
    readHeader();
}

void
Vpt2Reader::readHeader()
{
    readU32(in_);                   // flags
    readU64(in_);                   // reserved
    indexed_ = loadIndex();
}

/**
 * Seekable stream: jump to the trailer, validate the byte accounting
 * of index and trailer against the file size, check every index entry,
 * and return to the first block. Returns false (sequential mode) when
 * the stream cannot seek.
 */
bool
Vpt2Reader::loadIndex()
{
    const std::istream::pos_type body = in_.tellg();
    if (body == std::istream::pos_type(-1))
        return false;
    in_.seekg(0, std::ios::end);
    if (!in_) {
        in_.clear();
        in_.seekg(body);
        return false;
    }
    const std::istream::pos_type file_end = in_.tellg();
    const uint64_t file_size = static_cast<uint64_t>(file_end);
    if (file_size < headerBytes + 4 + 8 + trailerBytes)
        throw TraceFileError("VPT2 file too short for its trailer");

    in_.seekg(file_end - std::istream::off_type(trailerBytes));
    const uint64_t index_offset = readU64(in_, "VPT2 trailer");
    const uint64_t total = readU64(in_, "VPT2 trailer");
    char tm[4];
    in_.read(tm, 4);
    if (!in_ || std::memcmp(tm, trailerMagic, 4) != 0)
        throw TraceFileError("bad VPT2 trailer magic");

    if (index_offset < headerBytes + 4 ||
        index_offset + 8 + trailerBytes > file_size) {
        throw TraceFileError("VPT2 index offset out of range");
    }
    in_.seekg(static_cast<std::istream::off_type>(index_offset));
    const uint64_t blocks = readU64(in_, "VPT2 index");
    // The count is untrusted until it reproduces the file size
    // exactly — this is what bounds the loop below.
    if (index_offset + 8 + blocks * indexEntryBytes + trailerBytes !=
        file_size) {
        throw TraceFileError("VPT2 index does not match file size");
    }

    uint64_t events = 0;
    uint64_t min_offset = headerBytes;
    for (uint64_t b = 0; b < blocks; ++b) {
        const uint64_t offset = readU64(in_, "VPT2 index");
        const uint64_t first_event = readU64(in_, "VPT2 index");
        const uint32_t block_events = readU32(in_, "VPT2 index");
        // Payload sizes live in the block headers, not the index, so
        // only a lower bound on each offset can be checked here: past
        // the previous block's header plus a non-empty payload. Exact
        // sizes are validated when a block is opened.
        if ((b == 0 ? offset != headerBytes : offset < min_offset) ||
            first_event != events || block_events == 0) {
            throw TraceFileError("corrupt VPT2 index entry");
        }
        if (offset + blockHeaderBytes > index_offset - 4)
            throw TraceFileError("VPT2 index entry out of range");
        events += block_events;
        min_offset = offset + blockHeaderBytes + 1;
    }
    if (events != total)
        throw TraceFileError("VPT2 index events disagree with trailer");

    total_ = total;
    in_.clear();
    in_.seekg(body);
    return true;
}

/**
 * Read and decode the next block; returns false at the end marker.
 * Leaves p_/end_ spanning the decoded payload.
 */
bool
Vpt2Reader::openBlock()
{
    if (ended_)
        return false;
    const uint32_t events = readU32(in_, "VPT2 block header");
    if (events == 0) {
        finishStream();
        return false;
    }
    const uint32_t raw_bytes = readU32(in_, "VPT2 block header");
    const uint32_t enc_bytes = readU32(in_, "VPT2 block header");
    const int codec = in_.get();
    if (codec == std::istream::traits_type::eof())
        throw TraceFileError("truncated VPT2 block header");
    // Every event takes at least 3 payload bytes (tag + two varints),
    // so a header promising more events than the payload can hold is
    // corrupt — reject before allocating.
    if (raw_bytes < 3ull * events)
        throw TraceFileError("VPT2 block smaller than its event count");
    if (codec == codecRaw && enc_bytes != raw_bytes)
        throw TraceFileError("VPT2 raw block size mismatch");

    enc_.resize(enc_bytes);
    in_.read(enc_.data(), static_cast<std::streamsize>(enc_bytes));
    if (!in_)
        throw TraceFileError("truncated VPT2 block payload");

    if (codec == codecRaw) {
        rawBuf_.swap(enc_);
    } else if (codec == codecZlib) {
#if VP_HAVE_ZLIB
        rawBuf_.resize(raw_bytes);
        uLongf got = raw_bytes;
        const int rc = uncompress(
                reinterpret_cast<Bytef *>(rawBuf_.data()), &got,
                reinterpret_cast<const Bytef *>(enc_.data()),
                static_cast<uLong>(enc_.size()));
        if (rc != Z_OK || got != raw_bytes)
            throw TraceFileError("corrupt deflated VPT2 block");
#else
        throw TraceFileError(
                "zlib-compressed VPT2 block, but built without zlib");
#endif
    } else {
        throw TraceFileError("unknown VPT2 block codec");
    }

    p_ = reinterpret_cast<const uint8_t *>(rawBuf_.data());
    end_ = p_ + raw_bytes;
    blockRemaining_ = events;
    lastPc_ = 0;
    ++blocksSeen_;
    ioRawBytes_ += raw_bytes;
    ioEncBytes_ += enc_bytes;
    ioDeflatedBlocks_ += codec == codecZlib;
    return true;
}

/**
 * Sequential (non-indexed) end of stream: the end marker was just
 * consumed; read the index and trailer that follow and verify them
 * against what was actually decoded, so truncation and trailing
 * garbage surface even without random access.
 */
void
Vpt2Reader::finishStream()
{
    ended_ = true;
    if (indexed_) {
        // The index was validated up front; nothing left to read.
        return;
    }
    const uint64_t blocks = readU64(in_, "VPT2 index");
    if (blocks != blocksSeen_)
        throw TraceFileError("VPT2 index disagrees with block stream");
    uint64_t events = 0;
    for (uint64_t b = 0; b < blocks; ++b) {
        readU64(in_, "VPT2 index");
        readU64(in_, "VPT2 index");
        events += readU32(in_, "VPT2 index");
    }
    readU64(in_, "VPT2 trailer");   // index offset
    const uint64_t total = readU64(in_, "VPT2 trailer");
    char tm[4];
    in_.read(tm, 4);
    if (!in_ || std::memcmp(tm, trailerMagic, 4) != 0)
        throw TraceFileError("bad VPT2 trailer magic");
    if (total != pos_ || events != pos_)
        throw TraceFileError("VPT2 trailer count disagrees with stream");
    total_ = total;
}

void
Vpt2Reader::decodeEvent(TraceEvent &event)
{
    if (p_ == end_)
        throw TraceFileError("VPT2 block payload underrun");
    const int tag = *p_++;
    validateTag(tag, event);
    uint64_t coded = 0;
    p_ = readVarint(p_, end_, coded);
    event.pc = lastPc_ + static_cast<uint64_t>(unZigZag(coded));
    p_ = readVarint(p_, end_, event.value);
    lastPc_ = event.pc;
    --blockRemaining_;
    ++pos_;
    if (blockRemaining_ == 0 && p_ != end_)
        throw TraceFileError("VPT2 block payload overrun");
}

bool
Vpt2Reader::next(TraceEvent &event)
{
    while (blockRemaining_ == 0) {
        if (!openBlock())
            return false;
    }
    decodeEvent(event);
    return true;
}

void
Vpt2Reader::expectEnd()
{
    if (!ended_) {
        TraceEvent scratch{};
        if (next(scratch))
            throw TraceFileError("trace not fully consumed");
    }
    if (total_ != pos_)
        throw TraceFileError("VPT2 trailer count disagrees with stream");
    if (indexed_) {
        // Random-access mode: everything after the end marker was
        // validated against the file size when the index was loaded,
        // but the stream position sits at the end marker — skip the
        // index and check nothing follows the trailer.
        in_.seekg(0, std::ios::end);
        return;
    }
    if (in_.peek() != std::istream::traits_type::eof())
        throw TraceFileError("trailing bytes after the VPT2 trailer");
}

TraceIoStats
Vpt2Reader::ioStats() const
{
    TraceIoStats stats;
    stats.blocksRead = blocksSeen_;
    stats.rawBytes = ioRawBytes_;
    stats.encBytes = ioEncBytes_;
    stats.deflatedBlocks = ioDeflatedBlocks_;
    return stats;
}

std::unique_ptr<TraceCursor>
openTrace(std::istream &in)
{
    char header[4];
    in.read(header, 4);
    if (!in)
        throw TraceFileError("truncated trace header");
    if (std::memcmp(header, magic1, 4) == 0)
        return std::make_unique<TraceReader>(in, MagicConsumed{});
    if (std::memcmp(header, magic2, 4) == 0)
        return std::make_unique<Vpt2Reader>(in, MagicConsumed{});
    throw TraceFileError("not a trace file (unknown magic)");
}

// ------------------------------------------------------- conveniences

void
writeTraceFile(const std::string &path,
               const std::vector<TraceEvent> &events)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw TraceFileError("cannot open " + path + " for writing");
    TraceWriter writer(out);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
}

void
writeTraceFileVpt2(const std::string &path,
                   const std::vector<TraceEvent> &events,
                   size_t blockEvents, bool compress)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw TraceFileError("cannot open " + path + " for writing");
    Vpt2Writer writer(out, blockEvents, compress);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
}

std::vector<TraceEvent>
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw TraceFileError("cannot open " + path);
    const auto reader = openTrace(in);

    // The header count is untrusted input: clamp the reserve to what
    // the remaining bytes could possibly hold (>= 3 bytes per VPT1
    // event; a corrupt header claiming 2^60 events must not OOM the
    // process before decoding detects the corruption).
    std::error_code ec;
    const uint64_t file_bytes =
            std::filesystem::file_size(std::filesystem::path(path), ec);
    const uint64_t bound = ec ? 4096 : std::max<uint64_t>(
                                               file_bytes / 3, 4096);
    std::vector<TraceEvent> events;
    events.reserve(static_cast<size_t>(
            std::min<uint64_t>(reader->eventCount(), bound)));
    TraceEvent event{};
    while (reader->next(event))
        events.push_back(event);
    reader->expectEnd();
    return events;
}

} // namespace vp::vm
