/**
 * @file
 * Tests for the value-trace file format: round trips, streaming use
 * as a VM sink, replay equivalence, and corruption handling.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/fcm.hh"
#include "exp/suite.hh"
#include "masm/builder.hh"
#include "sim/driver.hh"
#include "synth/sequences.hh"
#include "vm/machine.hh"
#include "vm/trace_file.hh"

namespace {

using namespace vp;
using namespace vp::masm;
using namespace vp::masm::reg;
using vm::TraceEvent;

std::vector<TraceEvent>
sampleEvents(size_t n)
{
    synth::Rng rng(99);
    std::vector<TraceEvent> events;
    for (size_t i = 0; i < n; ++i) {
        TraceEvent event{};
        event.op = (i % 3 == 0) ? isa::Opcode::Add
                 : (i % 3 == 1) ? isa::Opcode::Ld
                                : isa::Opcode::Slli;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = rng.range(500);
        event.value = rng.next() >> (rng.range(60));
        events.push_back(event);
    }
    return events;
}

TEST(TraceFile, StreamRoundTrip)
{
    const auto events = sampleEvents(1000);
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::TraceWriter writer(buf);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
    EXPECT_EQ(writer.eventCount(), events.size());

    buf.seekg(0);
    vm::TraceReader reader(buf);
    EXPECT_EQ(reader.eventCount(), events.size());
    TraceEvent event{};
    for (const auto &expected : events) {
        ASSERT_TRUE(reader.next(event));
        EXPECT_EQ(event.pc, expected.pc);
        EXPECT_EQ(event.value, expected.value);
        EXPECT_EQ(event.op, expected.op);
        EXPECT_EQ(event.cat, expected.cat);
    }
    EXPECT_FALSE(reader.next(event));
}

TEST(TraceFile, FileRoundTripHelpers)
{
    const auto events = sampleEvents(300);
    const std::string path = "test_roundtrip.vpt";
    vm::writeTraceFile(path, events);
    const auto back = vm::readTraceFile(path);
    std::remove(path.c_str());
    ASSERT_EQ(back.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(back[i].pc, events[i].pc);
        EXPECT_EQ(back[i].value, events[i].value);
    }
}

TEST(TraceFile, RecordedVmTraceReplaysIdentically)
{
    // Run a real program once live and once through a trace file;
    // the fcm predictor must see exactly the same stream.
    ProgramBuilder b("rec");
    const auto loop = b.newLabel();
    b.li(t0, 200);
    b.bind(loop);
    b.mul(t1, t0, t0);
    b.andi(t2, t1, 255);
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.halt();
    const auto prog = b.build();

    // Live run into a predictor bank.
    sim::PredictorBank live;
    live.add(vp::exp::makePredictor("fcm2"));
    sim::runProgram(prog, live);

    // Recorded run.
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::TraceWriter writer(buf);
    vm::Machine machine;
    machine.setSink(&writer);
    ASSERT_TRUE(machine.run(prog).ok());
    writer.finish();

    buf.seekg(0);
    vm::TraceReader reader(buf);
    sim::PredictorBank replayed;
    replayed.add(vp::exp::makePredictor("fcm2"));
    const auto n = reader.replay(replayed);

    EXPECT_EQ(n, live.member(0).stats.total());
    EXPECT_EQ(replayed.member(0).stats.correct(),
              live.member(0).stats.correct());
}

TEST(TraceFile, RejectsGarbage)
{
    std::stringstream buf;
    buf << "not a trace at all";
    EXPECT_THROW(vm::TraceReader reader(buf), vm::TraceFileError);
}

TEST(TraceFile, RejectsTruncatedBody)
{
    const auto events = sampleEvents(50);
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::TraceWriter writer(buf);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();

    // Chop the tail off.
    std::string data = buf.str();
    data.resize(data.size() - 4);
    std::stringstream cut(data, std::ios::in | std::ios::binary);
    vm::TraceReader reader(cut);
    TraceEvent event{};
    EXPECT_THROW(
            {
                while (reader.next(event)) {
                }
            },
            vm::TraceFileError);
}

TEST(TraceFile, RejectsNonPredictedOpcodeTags)
{
    // Handcraft a file whose single event claims to be a store.
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::TraceWriter writer(buf);
    TraceEvent good{};
    good.op = isa::Opcode::Add;
    good.cat = isa::Category::AddSub;
    writer.onValue(good);
    writer.finish();
    std::string data = buf.str();
    data[16] = static_cast<char>(isa::Opcode::Sd);  // first tag byte
    std::stringstream bad(data, std::ios::in | std::ios::binary);
    vm::TraceReader reader(bad);
    TraceEvent event{};
    EXPECT_THROW(reader.next(event), vm::TraceFileError);
}

TEST(TraceFile, MissingFileThrows)
{
    EXPECT_THROW(vm::readTraceFile("/nonexistent/x.vpt"),
                 vm::TraceFileError);
}

// ------------------------------------------- fuzz-ish round trips

/** Serialize events into an in-memory trace stream. */
std::string
serialize(const std::vector<TraceEvent> &events)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::TraceWriter writer(buf);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
    return buf.str();
}

std::vector<TraceEvent>
deserialize(const std::string &data)
{
    std::stringstream buf(data, std::ios::in | std::ios::binary);
    vm::TraceReader reader(buf);
    std::vector<TraceEvent> events;
    TraceEvent event{};
    while (reader.next(event))
        events.push_back(event);
    return events;
}

TEST(TraceFileFuzz, BoundaryValuesRoundTrip)
{
    // The extremes the varint/zig-zag coding has to survive: value 0
    // and UINT64_MAX (the 10-byte LEB128 case), and PC deltas that
    // swing across the whole 64-bit range in both directions.
    std::vector<TraceEvent> events;
    const uint64_t pcs[] = {0, UINT64_MAX, 0, 1, UINT64_MAX - 1, 2,
                            0x8000000000000000ull, 0x7fffffffffffffffull};
    const uint64_t values[] = {0, UINT64_MAX, 1, UINT64_MAX - 1,
                               0x8000000000000000ull, 0, UINT64_MAX, 42};
    for (size_t i = 0; i < std::size(pcs); ++i) {
        TraceEvent event{};
        event.op = isa::Opcode::Add;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = pcs[i];
        event.value = values[i];
        events.push_back(event);
    }

    const auto back = deserialize(serialize(events));
    ASSERT_EQ(back.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(back[i].pc, events[i].pc) << i;
        EXPECT_EQ(back[i].value, events[i].value) << i;
    }
}

TEST(TraceFileFuzz, RandomizedStreamsRoundTrip)
{
    // Seeded (deterministic) random streams: full-range PCs and
    // values of every magnitude, occasionally forced to the 0 and
    // UINT64_MAX boundaries.
    for (const uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
        SCOPED_TRACE(seed);
        synth::Rng rng(seed);
        std::vector<TraceEvent> events;
        const size_t n = 200 + rng.range(800);
        for (size_t i = 0; i < n; ++i) {
            TraceEvent event{};
            event.op = (i % 2 == 0) ? isa::Opcode::Add
                                    : isa::Opcode::Ld;
            event.cat = isa::opcodeCategory(event.op);
            event.pc = rng.next() >> rng.range(64);
            event.value = rng.next() >> rng.range(64);
            switch (rng.range(16)) {
              case 0: event.pc = 0; break;
              case 1: event.pc = UINT64_MAX; break;
              case 2: event.value = 0; break;
              case 3: event.value = UINT64_MAX; break;
              default: break;
            }
            events.push_back(event);
        }

        const auto back = deserialize(serialize(events));
        ASSERT_EQ(back.size(), events.size());
        for (size_t i = 0; i < events.size(); ++i) {
            EXPECT_EQ(back[i].pc, events[i].pc) << i;
            EXPECT_EQ(back[i].value, events[i].value) << i;
            EXPECT_EQ(back[i].op, events[i].op) << i;
        }
    }
}

TEST(TraceFileFuzz, TruncationAtEveryByteYieldsAPrefixThenThrows)
{
    // Chop a stream at every possible byte boundary: the reader must
    // never crash, never fabricate events, and always end in a
    // TraceFileError (a complete stream is the only clean exit).
    synth::Rng rng(2026);
    std::vector<TraceEvent> events;
    for (size_t i = 0; i < 40; ++i) {
        TraceEvent event{};
        event.op = isa::Opcode::Sub;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = rng.next() >> rng.range(64);
        event.value = rng.next() >> rng.range(64);
        events.push_back(event);
    }
    const std::string data = serialize(events);

    for (size_t cut = 0; cut < data.size(); ++cut) {
        SCOPED_TRACE(cut);
        std::stringstream buf(data.substr(0, cut),
                              std::ios::in | std::ios::binary);
        std::vector<TraceEvent> seen;
        bool threw = false;
        try {
            vm::TraceReader reader(buf);
            TraceEvent event{};
            while (reader.next(event))
                seen.push_back(event);
        } catch (const vm::TraceFileError &) {
            threw = true;
        }
        EXPECT_TRUE(threw);
        ASSERT_LE(seen.size(), events.size());
        for (size_t i = 0; i < seen.size(); ++i) {
            EXPECT_EQ(seen[i].pc, events[i].pc);
            EXPECT_EQ(seen[i].value, events[i].value);
        }
    }

    // The untruncated stream round-trips cleanly.
    EXPECT_EQ(deserialize(data).size(), events.size());
}

// ----------------------------------------- hardening (the PR's fixes)

/** A sink that accepts writes but refuses to seek — a pipe. */
class PipeOutBuf : public std::stringbuf
{
  public:
    PipeOutBuf() : std::stringbuf(std::ios::out) {}

  protected:
    std::streampos
    seekoff(std::streamoff, std::ios_base::seekdir,
            std::ios_base::openmode) override
    {
        return std::streampos(std::streamoff(-1));
    }

    std::streampos
    seekpos(std::streampos, std::ios_base::openmode) override
    {
        return std::streampos(std::streamoff(-1));
    }
};

/** A source that yields bytes but refuses to seek or tell. */
class PipeInBuf : public std::stringbuf
{
  public:
    explicit PipeInBuf(const std::string &data)
        : std::stringbuf(data, std::ios::in)
    {
    }

  protected:
    std::streampos
    seekoff(std::streamoff, std::ios_base::seekdir,
            std::ios_base::openmode) override
    {
        return std::streampos(std::streamoff(-1));
    }

    std::streampos
    seekpos(std::streampos, std::ios_base::openmode) override
    {
        return std::streampos(std::streamoff(-1));
    }
};

TEST(TraceFileHardening, Vpt1FinishThrowsOnNonSeekableSink)
{
    // Without the seekp check, finish() on a pipe silently left the
    // header count at 0 and replay dropped every event.
    PipeOutBuf pipe;
    std::ostream out(&pipe);
    vm::TraceWriter writer(out);
    for (const auto &event : sampleEvents(10))
        writer.onValue(event);
    EXPECT_THROW(writer.finish(), vm::TraceFileError);
}

TEST(TraceFileHardening, Vpt2FinishWorksOnNonSeekableSink)
{
    // The replacement for the pipe use case: VPT2 never seeks.
    PipeOutBuf pipe;
    std::ostream out(&pipe);
    const auto events = sampleEvents(100);
    vm::Vpt2Writer writer(out, 32);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
    EXPECT_EQ(writer.eventCount(), events.size());

    std::stringstream buf(pipe.str(), std::ios::in | std::ios::binary);
    vm::Vpt2Reader reader(buf);
    TraceEvent event{};
    size_t n = 0;
    while (reader.next(event))
        ++n;
    reader.expectEnd();
    EXPECT_EQ(n, events.size());
}

namespace varint {

void
append(std::string &out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

} // namespace varint

std::string
vpt1Header(uint64_t count)
{
    std::string header = "VPT1";
    header.append(4, '\0');
    for (int i = 0; i < 8; ++i)
        header.push_back(static_cast<char>(count >> (8 * i)));
    return header;
}

TEST(TraceFileHardening, RejectsOverflowingFinalVarintByte)
{
    // A 10-byte varint's final byte sits at shift 63: only its lowest
    // bit fits in a uint64. 0x03 carries a second significant bit that
    // the old decoder silently shifted out, decoding a wrong value.
    std::string data = vpt1Header(1);
    data.push_back(static_cast<char>(isa::Opcode::Add));
    data.append(9, static_cast<char>(0xff));
    data.push_back(0x03);           // overflowing final pc-delta byte
    varint::append(data, 0);        // value

    std::stringstream buf(data, std::ios::in | std::ios::binary);
    vm::TraceReader reader(buf);
    TraceEvent event{};
    try {
        reader.next(event);
        FAIL() << "overflowing varint decoded without error";
    } catch (const vm::TraceFileError &error) {
        EXPECT_NE(std::string(error.what()).find("varint overflow"),
                  std::string::npos);
    }

    // The legitimate 10-byte encoding (final byte 0x01 = UINT64_MAX)
    // still decodes — only genuine overflow is rejected.
    std::string good = vpt1Header(1);
    good.push_back(static_cast<char>(isa::Opcode::Add));
    varint::append(good, vm::TraceEvent{}.pc);  // pc-delta 0
    good.append(9, static_cast<char>(0xff));
    good.push_back(0x01);                       // value = UINT64_MAX
    std::stringstream ok(good, std::ios::in | std::ios::binary);
    vm::TraceReader okReader(ok);
    ASSERT_TRUE(okReader.next(event));
    EXPECT_EQ(event.value, UINT64_MAX);
}

TEST(TraceFileHardening, AbsurdHeaderCountDoesNotPreallocate)
{
    // A forged header claiming 2^60 events must surface as a
    // TraceFileError, not a bad_alloc from reserve(2^60).
    const std::string path = "test_absurd_count.vpt";
    {
        std::ofstream out(path, std::ios::binary);
        out << vpt1Header(uint64_t(1) << 60);
    }
    EXPECT_THROW(vm::readTraceFile(path), vm::TraceFileError);
    std::remove(path.c_str());
}

TEST(TraceFileHardening, TrailingBytesAfterPromisedCountAreSurfaced)
{
    const auto events = sampleEvents(25);
    std::string data = serialize(events);
    data += "junk after the promised event count";

    std::stringstream buf(data, std::ios::in | std::ios::binary);
    const auto reader = vm::openTrace(buf);
    TraceEvent event{};
    size_t n = 0;
    while (reader->next(event))
        ++n;
    EXPECT_EQ(n, events.size());
    EXPECT_THROW(reader->expectEnd(), vm::TraceFileError);

    // A clean stream passes the same check.
    std::stringstream clean(serialize(events),
                            std::ios::in | std::ios::binary);
    const auto cleanReader = vm::openTrace(clean);
    while (cleanReader->next(event)) {
    }
    cleanReader->expectEnd();
}

TEST(TraceCacheHardening, TempFilesCleanedUpWhenRenameFails)
{
    namespace fs = std::filesystem;
    const fs::path dir =
            fs::temp_directory_path() / "vp-tmpclean-test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    exp::SuiteOptions options;
    options.predictors = {"l"};
    options.traceReplay = true;
    options.traceCacheDir = dir.string();
    options.config.scale = 5;

    // Plant a directory where the recording should land: the final
    // rename must fail, and the error path must not leave the
    // .vpt.tmp.<pid>/.meta.tmp.<pid> partials behind.
    fs::create_directories(dir / "compress-ref-ref-s5.vpt");
    EXPECT_THROW(exp::runBenchmark("compress", options),
                 std::exception);

    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
                << entry.path();
    }
    fs::remove_all(dir);
}

// ------------------------------------------------------ VPT2 format

std::string
serializeVpt2(const std::vector<TraceEvent> &events, size_t blockEvents,
              bool compress = true)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::Vpt2Writer writer(buf, blockEvents, compress);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
    return buf.str();
}

std::vector<TraceEvent>
deserializeVpt2(const std::string &data)
{
    std::stringstream buf(data, std::ios::in | std::ios::binary);
    vm::Vpt2Reader reader(buf);
    std::vector<TraceEvent> events;
    TraceEvent event{};
    while (reader.next(event))
        events.push_back(event);
    reader.expectEnd();
    return events;
}

void
expectSameEvents(const std::vector<TraceEvent> &got,
                 const std::vector<TraceEvent> &expected)
{
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i].pc, expected[i].pc) << i;
        EXPECT_EQ(got[i].value, expected[i].value) << i;
        EXPECT_EQ(got[i].op, expected[i].op) << i;
        EXPECT_EQ(got[i].cat, expected[i].cat) << i;
    }
}

TEST(Vpt2, RoundTripsAcrossBlockSizesAndCodecs)
{
    const auto events = sampleEvents(1000);
    for (const size_t block : {1u, 7u, 64u, 1000u, 4096u}) {
        for (const bool compress : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "block " << block << " compress "
                         << compress);
            const auto data = serializeVpt2(events, block, compress);
            const auto back = deserializeVpt2(data);
            expectSameEvents(back, events);
        }
    }
}

TEST(Vpt2, EmptyTraceRoundTrips)
{
    const auto data = serializeVpt2({}, 64);
    EXPECT_TRUE(deserializeVpt2(data).empty());
}

TEST(Vpt2, BoundaryValuesRoundTrip)
{
    std::vector<TraceEvent> events;
    const uint64_t pcs[] = {0, UINT64_MAX, 0, 1, UINT64_MAX - 1, 2,
                            0x8000000000000000ull,
                            0x7fffffffffffffffull};
    const uint64_t values[] = {0, UINT64_MAX, 1, UINT64_MAX - 1,
                               0x8000000000000000ull, 0, UINT64_MAX,
                               42};
    for (size_t i = 0; i < std::size(pcs); ++i) {
        TraceEvent event{};
        event.op = isa::Opcode::Add;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = pcs[i];
        event.value = values[i];
        events.push_back(event);
    }
    // Block size 3 forces the boundary values across block breaks,
    // exercising the per-block lastPc restart.
    expectSameEvents(deserializeVpt2(serializeVpt2(events, 3)), events);
}

TEST(Vpt2, RandomizedStreamsRoundTrip)
{
    for (const uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
        SCOPED_TRACE(seed);
        synth::Rng rng(seed);
        std::vector<TraceEvent> events;
        const size_t n = 200 + rng.range(800);
        for (size_t i = 0; i < n; ++i) {
            TraceEvent event{};
            event.op = (i % 2 == 0) ? isa::Opcode::Add
                                    : isa::Opcode::Ld;
            event.cat = isa::opcodeCategory(event.op);
            event.pc = rng.next() >> rng.range(64);
            event.value = rng.next() >> rng.range(64);
            events.push_back(event);
        }
        const auto back =
                deserializeVpt2(serializeVpt2(events, 100));
        expectSameEvents(back, events);
    }
}

TEST(Vpt2, OpenTraceAutoDetectsBothFormats)
{
    const auto events = sampleEvents(50);

    std::stringstream v1(serialize(events),
                         std::ios::in | std::ios::binary);
    EXPECT_EQ(vm::openTrace(v1)->eventCount(), events.size());

    std::stringstream v2(serializeVpt2(events, 16),
                         std::ios::in | std::ios::binary);
    EXPECT_EQ(vm::openTrace(v2)->eventCount(), events.size());

    std::stringstream junk("ABCD....", std::ios::in | std::ios::binary);
    EXPECT_THROW(vm::openTrace(junk), vm::TraceFileError);
}

TEST(Vpt2, StreamsSequentiallyWithoutSeeking)
{
    const auto events = sampleEvents(300);
    const auto data = serializeVpt2(events, 32);

    PipeInBuf pipe(data);
    std::istream in(&pipe);
    vm::Vpt2Reader reader(in);
    EXPECT_FALSE(reader.indexed());
    EXPECT_EQ(reader.eventCount(), 0u);     // trailer not read yet

    std::vector<TraceEvent> back;
    TraceEvent event{};
    while (reader.next(event))
        back.push_back(event);
    reader.expectEnd();
    expectSameEvents(back, events);
    EXPECT_EQ(reader.eventCount(), events.size());
}

TEST(Vpt2, NonSeekableStreamSurfacesTrailingGarbage)
{
    const auto events = sampleEvents(100);
    std::string data = serializeVpt2(events, 32);
    data += "zzz";

    PipeInBuf pipe(data);
    std::istream in(&pipe);
    vm::Vpt2Reader reader(in);
    TraceEvent event{};
    while (reader.next(event)) {
    }
    EXPECT_THROW(reader.expectEnd(), vm::TraceFileError);
}

TEST(Vpt2, IndexedOpenRejectsTrailingGarbage)
{
    // With random access the byte accounting is validated up front.
    const auto events = sampleEvents(100);
    std::string data = serializeVpt2(events, 32);
    data += "zzz";
    std::stringstream buf(data, std::ios::in | std::ios::binary);
    EXPECT_THROW(vm::Vpt2Reader reader(buf), vm::TraceFileError);
}

TEST(Vpt2Fuzz, TruncationAtEveryByteNeverFabricatesEvents)
{
    synth::Rng rng(2027);
    std::vector<TraceEvent> events;
    for (size_t i = 0; i < 120; ++i) {
        TraceEvent event{};
        event.op = isa::Opcode::Sub;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = rng.next() >> rng.range(64);
        event.value = rng.next() >> rng.range(64);
        events.push_back(event);
    }
    const std::string data = serializeVpt2(events, 16);

    for (size_t cut = 0; cut < data.size(); ++cut) {
        SCOPED_TRACE(cut);

        // Indexed (seekable) open: the trailer/index validation must
        // reject every truncation outright or during decode.
        {
            std::stringstream buf(data.substr(0, cut),
                                  std::ios::in | std::ios::binary);
            std::vector<TraceEvent> seen;
            bool threw = false;
            try {
                vm::Vpt2Reader reader(buf);
                TraceEvent event{};
                while (reader.next(event))
                    seen.push_back(event);
                reader.expectEnd();
            } catch (const vm::TraceFileError &) {
                threw = true;
            }
            EXPECT_TRUE(threw);
            ASSERT_LE(seen.size(), events.size());
            expectSameEvents(seen, {events.begin(),
                                    events.begin() +
                                            static_cast<long>(
                                                    seen.size())});
        }

        // Streaming open: decoded events must be a prefix, and the
        // missing endmark/index/trailer must surface as an error.
        {
            PipeInBuf pipe(data.substr(0, cut));
            std::istream in(&pipe);
            std::vector<TraceEvent> seen;
            bool threw = false;
            try {
                vm::Vpt2Reader reader(in);
                TraceEvent event{};
                while (reader.next(event))
                    seen.push_back(event);
                reader.expectEnd();
            } catch (const vm::TraceFileError &) {
                threw = true;
            }
            EXPECT_TRUE(threw);
            ASSERT_LE(seen.size(), events.size());
            expectSameEvents(seen, {events.begin(),
                                    events.begin() +
                                            static_cast<long>(
                                                    seen.size())});
        }
    }

    expectSameEvents(deserializeVpt2(data), events);
}

TEST(Vpt2, FileHelpersRoundTrip)
{
    const auto events = sampleEvents(500);
    const std::string path = "test_roundtrip2.vpt";
    vm::writeTraceFileVpt2(path, events, 64);
    const auto back = vm::readTraceFile(path);    // auto-detects
    std::remove(path.c_str());
    expectSameEvents(back, events);
}

TEST(Vpt2, DeflateShrinksWorkloadTracesBelowVpt1)
{
    if (!vm::traceFileZlibAvailable())
        GTEST_SKIP() << "built without zlib; blocks are stored raw";

    // One VM execution per workload, both writers fed from the same
    // fan-out — the campaign-format size claim, pinned per workload.
    for (const auto &info : workloads::allWorkloads()) {
        SCOPED_TRACE(info.name);
        workloads::WorkloadConfig config;
        config.scale = 5;
        const auto prog = info.build(config);

        std::stringstream v1(std::ios::in | std::ios::out |
                             std::ios::binary);
        std::stringstream v2(std::ios::in | std::ios::out |
                             std::ios::binary);
        vm::TraceWriter w1(v1);
        vm::Vpt2Writer w2(v2);
        vm::FanoutSink fan;
        fan.add(&w1);
        fan.add(&w2);
        vm::Machine machine;
        machine.setSink(&fan);
        ASSERT_TRUE(machine.run(prog).ok());
        w1.finish();
        w2.finish();

        EXPECT_LT(v2.str().size(), v1.str().size())
                << "VPT2 (" << v2.str().size()
                << " bytes) not smaller than VPT1 ("
                << v1.str().size() << " bytes)";
    }
}

} // anonymous namespace
