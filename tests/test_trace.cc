/**
 * @file
 * Unit tests for the trace framework: buffers, counters, merge order,
 * binary I/O round trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include "trace/trace_io.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_set.hh"
#include "resident.hh"

namespace whisper::trace
{
namespace
{

TraceEvent
ev(Tick ts, EventKind kind, Addr addr = 0, std::uint32_t size = 8,
   DataClass cls = DataClass::User, std::uint8_t aux = 0)
{
    return TraceEvent{ts, addr, size, kind, cls, aux, 0};
}

TEST(TraceBuffer, CountsByKind)
{
    TraceBuffer buf(0);
    buf.push(ev(1, EventKind::PmStore, 0, 16));
    buf.push(ev(2, EventKind::PmNtStore, 64, 8, DataClass::Log));
    buf.push(ev(3, EventKind::PmFlush));
    buf.push(ev(4, EventKind::Fence));
    buf.push(ev(5, EventKind::PmLoad));
    const auto &c = buf.counters();
    EXPECT_EQ(c.pmStores, 1u);
    EXPECT_EQ(c.pmNtStores, 1u);
    EXPECT_EQ(c.pmFlushes, 1u);
    EXPECT_EQ(c.fences, 1u);
    EXPECT_EQ(c.pmLoads, 1u);
    EXPECT_EQ(c.pmWrites(), 2u);
    EXPECT_EQ(c.pmBytesByClass[static_cast<int>(DataClass::User)], 16u);
    EXPECT_EQ(c.pmBytesByClass[static_cast<int>(DataClass::Log)], 8u);
}

TEST(TraceBuffer, VolatileCountedNotStoredByDefault)
{
    TraceBuffer buf(0, false);
    buf.push(ev(1, EventKind::DramLoad));
    buf.push(ev(2, EventKind::DramStore));
    EXPECT_EQ(buf.counters().dramLoads, 1u);
    EXPECT_EQ(buf.counters().dramStores, 1u);
    EXPECT_TRUE(buf.empty());
}

TEST(TraceBuffer, VolatileStoredWhenEnabled)
{
    TraceBuffer buf(0, true);
    buf.push(ev(1, EventKind::DramLoad));
    EXPECT_EQ(buf.size(), 1u);
}

TEST(TraceBuffer, ClearResetsEverything)
{
    TraceBuffer buf(0);
    buf.push(ev(1, EventKind::PmStore));
    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.counters().pmStores, 0u);
}

/** Event @p i of a valid, varied trace: every kind, class and origin. */
TraceEvent
patterned(std::size_t i)
{
    const auto kind = static_cast<EventKind>(i % 10);
    const std::uint8_t aux =
        kind == EventKind::Fence ? static_cast<std::uint8_t>(i / 10 % 2)
                                 : 0;
    return TraceEvent{i / 3, i * 64, static_cast<std::uint32_t>(i % 100),
                      kind, static_cast<DataClass>(i % kDataClassCount),
                      aux, static_cast<std::uint8_t>(i % kOriginCount)};
}

std::vector<TraceEvent>
contents(const TraceBuffer &buf)
{
    std::vector<TraceEvent> out;
    buf.forEachChunk([&](const TraceEvent *events, std::size_t n) {
        out.insert(out.end(), events, events + n);
    });
    return out;
}

bool
same(const TraceEvent &a, const TraceEvent &b)
{
    return std::memcmp(&a, &b, sizeof(TraceEvent)) == 0;
}

std::vector<char>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Whether @p buf holds exactly ref[0, n), by chunk and by index. */
void
expectHolds(const TraceBuffer &buf, const std::vector<TraceEvent> &ref,
            std::size_t n)
{
    ASSERT_EQ(buf.size(), n);
    EXPECT_EQ(buf.empty(), n == 0);
    const std::vector<TraceEvent> got = contents(buf);
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; i++) {
        ASSERT_TRUE(same(got[i], ref[i])) << "chunked event " << i;
        ASSERT_TRUE(same(buf.at(i), ref[i])) << "indexed event " << i;
    }
    if (n > 0) {
        EXPECT_TRUE(same(buf.front(), ref[0]));
        EXPECT_TRUE(same(buf.back(), ref[n - 1]));
    }
}

TEST(TraceBuffer, ChunkBoundariesHoldEveryEvent)
{
    // Sizes on both sides of the first chunk's end, of the first
    // capped chunk's size and of three capped chunks.
    constexpr std::size_t kCap = TraceBuffer::kChunkCapEvents;
    constexpr std::size_t kFirst = TraceBuffer::kFirstChunkEvents;
    std::vector<TraceEvent> ref(3 * kCap + 5);
    for (std::size_t i = 0; i < ref.size(); i++)
        ref[i] = patterned(i);
    const std::string path = "/tmp/whisper_chunk_bounds.bin";
    const std::string again = "/tmp/whisper_chunk_bounds_again.bin";
    for (const std::size_t n : {std::size_t(0), std::size_t(1), kFirst - 1,
                                kFirst, kFirst + 1, kCap - 1, kCap,
                                kCap + 1, 3 * kCap + 5}) {
        SCOPED_TRACE(n);
        TraceSet set(/*record_volatile=*/true);
        TraceBuffer *pushed = set.createBuffer(0);
        TraceBuffer *appended = set.createBuffer(1);
        AccessCounters counted;
        for (std::size_t i = 0; i < n; i++) {
            pushed->push(ref[i]);
            counted.add(ref[i]);
        }
        // Spans of 1000 cross every chunk boundary mid-span.
        for (std::size_t i = 0; i < n; i += 1000)
            appended->append(ref.data() + i, std::min<std::size_t>(
                                                 1000, n - i));
        expectHolds(*pushed, ref, n);
        expectHolds(*appended, ref, n);
        EXPECT_EQ(appended->counters().pmStoreBytes, counted.pmStoreBytes);
        EXPECT_EQ(appended->counters().dramLoads, counted.dramLoads);
        for (std::size_t c = 0; c < kDataClassCount; c++)
            EXPECT_EQ(appended->counters().pmBytesByClass[c],
                      counted.pmBytesByClass[c]);

        ASSERT_TRUE(writeTraceFile(path, set));
        TraceSet loaded;
        ASSERT_TRUE(readTraceFile(path, loaded));
        expectHolds(*loaded.buffer(0), ref, n);
        expectHolds(*loaded.buffer(1), ref, n);
        EXPECT_EQ(loaded.buffer(1)->counters().fences, counted.fences);
        ASSERT_TRUE(writeTraceFile(again, loaded));
        EXPECT_EQ(fileBytes(path), fileBytes(again));
    }
    std::remove(path.c_str());
    std::remove(again.c_str());
}

TEST(TraceBuffer, AppendOfOneSpanMatchesPushes)
{
    // One span larger than all growing chunks together; DRAM events
    // are counted but dropped, as push drops them.
    constexpr std::size_t kN = 2 * TraceBuffer::kChunkCapEvents + 17;
    std::vector<TraceEvent> ref(kN);
    for (std::size_t i = 0; i < kN; i++)
        ref[i] = patterned(i);
    for (const bool record_volatile : {true, false}) {
        TraceBuffer pushed(0, record_volatile);
        TraceBuffer appended(0, record_volatile);
        for (const TraceEvent &e : ref)
            pushed.push(e);
        appended.append(ref.data(), ref.size());
        const std::vector<TraceEvent> want = contents(pushed);
        expectHolds(appended, want, want.size());
        EXPECT_EQ(want.size() < kN, !record_volatile);
        EXPECT_EQ(appended.counters().dramStores,
                  pushed.counters().dramStores);
        EXPECT_EQ(appended.counters().pmWrites(),
                  pushed.counters().pmWrites());
    }
}

TEST(TraceBuffer, ClearThenRefill)
{
    constexpr std::size_t kCap = TraceBuffer::kChunkCapEvents;
    std::vector<TraceEvent> ref(2 * kCap + 3);
    for (std::size_t i = 0; i < ref.size(); i++)
        ref[i] = patterned(i);
    TraceBuffer buf(0, true);
    buf.append(ref.data(), ref.size());
    buf.clear();
    expectHolds(buf, ref, 0);
    EXPECT_EQ(buf.counters().pmStores, 0u);
    EXPECT_EQ(buf.counters().dramLoads, 0u);

    // Refill past the kept first chunk, shifted so no stale event
    // can pass for a new one.
    std::vector<TraceEvent> next(ref.begin() + 7, ref.end());
    for (const TraceEvent &e : next)
        buf.push(e);
    expectHolds(buf, next, next.size());
    buf.clear();
    buf.push(next[0]);
    expectHolds(buf, next, 1);
}

TEST(TraceBuffer, ClearReturnsChunksToTheKernel)
{
    // 48 MiB of events: resident while held, released by clear().
    constexpr std::size_t kEvents = 8 * TraceBuffer::kChunkCapEvents;
    constexpr std::size_t kBytes = kEvents * sizeof(TraceEvent);
    const std::size_t before = residentBytes();
    ASSERT_GT(before, 0u) << "no VmRSS in /proc/self/status";
    TraceBuffer buf(0);
    for (std::size_t i = 0; i < kEvents; i++)
        buf.push(ev(i, EventKind::PmStore, i * 8));
    const std::size_t full = residentBytes();
    EXPECT_GT(full, before + kBytes / 2);
    buf.clear();
    EXPECT_LT(residentBytes(), full - kBytes / 2);
}

TEST(TraceBuffer, SuspendedRecordsNothing)
{
    TraceSet set;
    TraceBuffer *buf = set.createBuffer(0);
    buf->push(ev(1, EventKind::PmStore));
    {
        UntracedScope outer(set);
        {
            UntracedScope inner(set);
            EXPECT_TRUE(buf->suspended());
        }
        // Still inside the outer scope.
        EXPECT_TRUE(buf->suspended());
        buf->push(ev(2, EventKind::PmStore));
        const TraceEvent more[2] = {ev(3, EventKind::Fence),
                                    ev(4, EventKind::PmFlush)};
        buf->append(more, 2);
        buf->addVolatileBulk(10, 10);
    }
    EXPECT_FALSE(buf->suspended());
    EXPECT_EQ(buf->size(), 1u);
    EXPECT_EQ(buf->counters().pmStores, 1u);
    EXPECT_EQ(buf->counters().fences, 0u);
    EXPECT_EQ(buf->counters().dramAccesses(), 0u);
    buf->push(ev(5, EventKind::Fence));
    EXPECT_EQ(buf->size(), 2u);
    EXPECT_EQ(buf->back().ts, 5u);
}

TEST(TraceSet, MergeSortsByTimestamp)
{
    TraceSet set;
    TraceBuffer *b0 = set.createBuffer(0);
    TraceBuffer *b1 = set.createBuffer(1);
    b0->push(ev(10, EventKind::PmStore));
    b0->push(ev(30, EventKind::Fence));
    b1->push(ev(20, EventKind::PmStore));
    const auto merged = set.merged();
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].ev.ts, 10u);
    EXPECT_EQ(merged[0].tid, 0u);
    EXPECT_EQ(merged[1].ev.ts, 20u);
    EXPECT_EQ(merged[1].tid, 1u);
    EXPECT_EQ(merged[2].ev.ts, 30u);
}

TEST(TraceSet, FirstAndLastTick)
{
    TraceSet set;
    TraceBuffer *b0 = set.createBuffer(0);
    TraceBuffer *b1 = set.createBuffer(1);
    EXPECT_EQ(set.firstTick(), 0u);
    b0->push(ev(15, EventKind::PmStore));
    b1->push(ev(5, EventKind::PmStore));
    b1->push(ev(40, EventKind::Fence));
    EXPECT_EQ(set.firstTick(), 5u);
    EXPECT_EQ(set.lastTick(), 40u);
}

TEST(TraceSet, TotalCountersAggregate)
{
    TraceSet set;
    set.createBuffer(0)->push(ev(1, EventKind::PmStore));
    set.createBuffer(1)->push(ev(2, EventKind::PmStore));
    EXPECT_EQ(set.totalCounters().pmStores, 2u);
    EXPECT_EQ(set.totalEvents(), 2u);
}

TEST(TraceIo, RoundTrip)
{
    TraceSet set;
    TraceBuffer *b0 = set.createBuffer(0);
    TraceBuffer *b1 = set.createBuffer(3);
    b0->push(ev(1, EventKind::PmStore, 100, 8));
    b0->push(ev(2, EventKind::Fence, 0, 0, DataClass::None, 1));
    b1->push(ev(5, EventKind::PmNtStore, 4096, 64, DataClass::Log));

    const std::string path = "/tmp/whisper_trace_test.bin";
    ASSERT_TRUE(writeTraceFile(path, set));

    TraceSet loaded;
    ASSERT_TRUE(readTraceFile(path, loaded));
    std::remove(path.c_str());

    ASSERT_EQ(loaded.threadCount(), 2u);
    const TraceBuffer *l0 = loaded.buffer(0);
    const TraceBuffer *l1 = loaded.buffer(3);
    ASSERT_NE(l0, nullptr);
    ASSERT_NE(l1, nullptr);
    ASSERT_EQ(l0->size(), 2u);
    ASSERT_EQ(l1->size(), 1u);
    EXPECT_EQ(l0->at(1).fenceKind(), FenceKind::Durability);
    EXPECT_EQ(l1->at(0).addr, 4096u);
    EXPECT_EQ(l1->at(0).cls, DataClass::Log);
}

TEST(TraceIo, RejectsMissingFile)
{
    TraceSet set;
    EXPECT_FALSE(readTraceFile("/tmp/definitely_missing_whisper", set));
}

TEST(TraceIo, RejectsGarbage)
{
    const std::string path = "/tmp/whisper_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace", f);
    std::fclose(f);
    TraceSet set;
    EXPECT_FALSE(readTraceFile(path, set));
    std::remove(path.c_str());
}

TEST(TraceReader, IndexesSectionsWithoutLoading)
{
    TraceSet set;
    TraceBuffer *b0 = set.createBuffer(0);
    TraceBuffer *b2 = set.createBuffer(2);
    for (Tick t = 1; t <= 10; t++)
        b0->push(ev(t, EventKind::PmStore, t * 64));
    b2->push(ev(3, EventKind::Fence, 0, 0, DataClass::None, 1));

    const std::string path = "/tmp/whisper_reader_index.bin";
    ASSERT_TRUE(writeTraceFile(path, set));

    TraceFileReader reader;
    ASSERT_TRUE(reader.open(path));
    std::remove(path.c_str());

    ASSERT_EQ(reader.threadCount(), 2u);
    EXPECT_EQ(reader.sections()[0].tid, 0u);
    EXPECT_EQ(reader.sections()[0].eventCount, 10u);
    EXPECT_EQ(reader.sections()[1].tid, 2u);
    EXPECT_EQ(reader.sections()[1].eventCount, 1u);
    EXPECT_EQ(reader.totalEvents(), 11u);
    // Section payloads start right after the two fixed headers.
    EXPECT_EQ(reader.sections()[0].fileOffset,
              sizeof(TraceFileHeader) + sizeof(TraceSectionHeader));
}

TEST(TraceReader, StreamsChunksInProgramOrder)
{
    TraceSet set;
    TraceBuffer *b = set.createBuffer(7);
    for (Tick t = 1; t <= 100; t++)
        b->push(ev(t, EventKind::PmStore, t * 8, 8));

    const std::string path = "/tmp/whisper_reader_chunks.bin";
    ASSERT_TRUE(writeTraceFile(path, set));

    TraceFileReader reader;
    ASSERT_TRUE(reader.open(path));

    // A 7-event chunk size forces many partial chunks.
    std::vector<TraceEvent> streamed;
    std::size_t chunks = 0;
    ASSERT_TRUE(reader.streamSection(
        0,
        [&](const TraceEvent *events, std::size_t count) {
            chunks++;
            EXPECT_LE(count, 7u);
            streamed.insert(streamed.end(), events, events + count);
        },
        7));
    std::remove(path.c_str());

    ASSERT_EQ(streamed.size(), b->size());
    EXPECT_EQ(chunks, (100 + 6) / 7u);
    for (std::size_t i = 0; i < streamed.size(); i++) {
        EXPECT_EQ(streamed[i].ts, b->at(i).ts);
        EXPECT_EQ(streamed[i].addr, b->at(i).addr);
    }
}

TEST(TraceReader, RejectsGarbageAndMissing)
{
    TraceFileReader reader;
    EXPECT_FALSE(reader.open("/tmp/definitely_missing_whisper"));
    EXPECT_EQ(reader.lastError(), TraceReadError::Io);

    const std::string path = "/tmp/whisper_reader_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_FALSE(reader.open(path));
    EXPECT_EQ(reader.threadCount(), 0u);
    EXPECT_EQ(reader.lastError(), TraceReadError::Truncated);
    std::remove(path.c_str());
}

TEST(TraceReader, RejectsByteTruncatedTrace)
{
    TraceSet set;
    TraceBuffer *b = set.createBuffer(0);
    for (Tick t = 1; t <= 50; t++)
        b->push(ev(t, EventKind::PmStore, t * 8, 8));

    const std::string path = "/tmp/whisper_reader_truncated.bin";
    ASSERT_TRUE(writeTraceFile(path, set));

    // Chop bytes off the last event: the headers now promise more
    // payload than the file holds, and open() must reject the file
    // up front rather than hand a stream that dies mid-analysis.
    std::vector<char> bytes;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        int c = 0;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
    }
    ASSERT_GT(bytes.size(), 17u);
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size() - 17, f);
        std::fclose(f);
    }

    TraceFileReader reader;
    EXPECT_FALSE(reader.open(path));
    EXPECT_EQ(reader.lastError(), TraceReadError::Truncated);
    EXPECT_EQ(reader.threadCount(), 0u);
    EXPECT_STREQ(traceReadErrorName(reader.lastError()), "truncated");
    std::remove(path.c_str());
}

TEST(TraceReader, RejectsDuplicateSectionTid)
{
    TraceSet set;
    set.createBuffer(0)->push(ev(1, EventKind::PmStore));
    set.createBuffer(1)->push(ev(2, EventKind::PmStore));
    const std::string path = "/tmp/whisper_reader_dup_tid.bin";
    ASSERT_TRUE(writeTraceFile(path, set));
    // Rename section 1's thread to 0: a TraceSet cannot hold both.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f,
               static_cast<long>(sizeof(TraceFileHeader) +
                                 sizeof(TraceSectionHeader) +
                                 sizeof(TraceEvent)),
               SEEK_SET);
    std::fputc(0, f);
    std::fclose(f);

    TraceFileReader reader;
    EXPECT_FALSE(reader.open(path));
    EXPECT_EQ(reader.lastError(), TraceReadError::DuplicateTid);
    EXPECT_EQ(reader.threadCount(), 0u);
    EXPECT_STREQ(traceReadErrorName(reader.lastError()),
                 "duplicate-tid");
    TraceSet loaded;
    TraceReadFault fault;
    EXPECT_FALSE(readTraceFile(path, loaded, &fault));
    EXPECT_EQ(fault.error, TraceReadError::DuplicateTid);
    EXPECT_FALSE(fault.badEvent());
    std::remove(path.c_str());
}

/**
 * Write a two-section trace (10 valid events each), overwrite byte
 * @p byte (0..23) of event @p event in section @p section with
 * @p value, and return where it went.
 */
std::string
traceWithPatchedEvent(const std::string &name, std::size_t section,
                      std::size_t event, std::size_t byte,
                      std::uint8_t value)
{
    TraceSet set;
    for (ThreadId tid : {0u, 1u}) {
        TraceBuffer *b = set.createBuffer(tid);
        for (Tick t = 1; t <= 10; t++) {
            b->push(t % 4 == 0
                        ? ev(t, EventKind::Fence, 0, 0, DataClass::None)
                        : ev(t, EventKind::PmStore, t * 64));
        }
    }
    const std::string path = "/tmp/whisper_reader_" + name + ".bin";
    EXPECT_TRUE(writeTraceFile(path, set));
    const long off = static_cast<long>(
        sizeof(TraceFileHeader) +
        section * (sizeof(TraceSectionHeader) + 10 * sizeof(TraceEvent)) +
        sizeof(TraceSectionHeader) + event * sizeof(TraceEvent) + byte);
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    EXPECT_NE(f, nullptr);
    std::fseek(f, off, SEEK_SET);
    std::fputc(value, f);
    std::fclose(f);
    return path;
}

/**
 * Expect @p path to index cleanly, then fail to stream (in 3-event
 * chunks, so checks span chunk boundaries) and to load with @p want
 * at section 1, event @p event.
 */
void
expectBadEvent(const std::string &path, std::uint64_t event,
               TraceReadError want)
{
    TraceFileReader reader;
    ASSERT_TRUE(reader.open(path));
    EXPECT_TRUE(reader.streamSection(0, [](const TraceEvent *,
                                           std::size_t) {}));
    TraceReadFault fault;
    std::uint64_t handed = 0;
    EXPECT_FALSE(reader.streamSection(
        1, [&](const TraceEvent *, std::size_t n) { handed += n; }, 3,
        &fault));
    EXPECT_EQ(fault.error, want);
    EXPECT_TRUE(fault.badEvent());
    EXPECT_EQ(fault.section, 1u);
    EXPECT_EQ(fault.event, event);
    // Only whole chunks before the bad event's reach the sink.
    EXPECT_EQ(handed, event / 3 * 3);

    TraceSet loaded;
    TraceReadFault load_fault;
    EXPECT_FALSE(readTraceFile(path, loaded, &load_fault));
    EXPECT_EQ(load_fault.error, want);
    EXPECT_EQ(load_fault.section, 1u);
    EXPECT_EQ(load_fault.event, event);
    std::remove(path.c_str());
}

TEST(TraceReader, RejectsUnknownEventKind)
{
    expectBadEvent(traceWithPatchedEvent("kind", 1, 5, 20, 0x7f), 5,
                   TraceReadError::BadKind);
    EXPECT_STREQ(traceReadErrorName(TraceReadError::BadKind),
                 "bad-kind");
}

TEST(TraceReader, RejectsUnknownDataClass)
{
    expectBadEvent(traceWithPatchedEvent("class", 1, 0, 21, 6), 0,
                   TraceReadError::BadClass);
    EXPECT_STREQ(traceReadErrorName(TraceReadError::BadClass),
                 "bad-class");
}

TEST(TraceReader, RejectsUnknownFenceKind)
{
    // Event 3 (tick 4) is a fence; aux 2 is no FenceKind.
    expectBadEvent(traceWithPatchedEvent("fence", 1, 3, 22, 2), 3,
                   TraceReadError::BadFenceKind);
    EXPECT_STREQ(traceReadErrorName(TraceReadError::BadFenceKind),
                 "bad-fence-kind");
}

TEST(TraceReader, RejectsOutOfRangeOrigin)
{
    expectBadEvent(traceWithPatchedEvent("origin", 1, 9, 23,
                                         static_cast<std::uint8_t>(
                                             kOriginCount)),
                   9, TraceReadError::BadOrigin);
    EXPECT_STREQ(traceReadErrorName(TraceReadError::BadOrigin),
                 "bad-origin");
}

TEST(TraceReader, RejectsBackwardTimestamp)
{
    // Event 6 (tick 7) drops to tick 0, below event 5's tick 6,
    // which the reader handed out in the previous 3-event chunk.
    expectBadEvent(traceWithPatchedEvent("ts", 1, 6, 0, 0), 6,
                   TraceReadError::BackwardTs);
    EXPECT_STREQ(traceReadErrorName(TraceReadError::BackwardTs),
                 "backward-ts");
}

TEST(TraceReader, ReportsShortReadWhenFileShrinksAfterOpen)
{
    TraceSet set;
    TraceBuffer *b = set.createBuffer(0);
    for (Tick t = 1; t <= 50; t++)
        b->push(ev(t, EventKind::PmStore, t * 8, 8));

    const std::string path = "/tmp/whisper_reader_shrunk.bin";
    ASSERT_TRUE(writeTraceFile(path, set));

    TraceFileReader reader;
    ASSERT_TRUE(reader.open(path));
    EXPECT_EQ(reader.lastError(), TraceReadError::None);

    // Shrink the file after indexing: streaming must fail with a
    // structured ShortRead, not abort or report success.
    std::vector<char> bytes;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        int c = 0;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
        std::fclose(f);
    }

    TraceReadFault fault;
    std::size_t seen = 0;
    EXPECT_FALSE(reader.streamSection(
        0,
        [&](const TraceEvent *, std::size_t count) { seen += count; },
        TraceFileReader::kDefaultChunkEvents, &fault));
    EXPECT_EQ(fault.error, TraceReadError::ShortRead);
    EXPECT_LT(seen, 50u);
    std::remove(path.c_str());
}

TEST(AccessCounters, AddMatchesBufferPush)
{
    // AccessCounters::add must be the exact counter effect of push,
    // so streaming readers can rebuild counters without a buffer.
    TraceBuffer buf(0, /*record_volatile=*/true);
    AccessCounters direct;
    const std::vector<TraceEvent> events = {
        ev(1, EventKind::PmStore, 0, 16),
        ev(2, EventKind::PmNtStore, 64, 8, DataClass::Log),
        ev(3, EventKind::PmLoad, 0),
        ev(4, EventKind::PmFlush, 0),
        ev(5, EventKind::Fence, 0, 0, DataClass::None),
        ev(6, EventKind::DramLoad, 0),
        ev(7, EventKind::DramStore, 0),
        ev(8, EventKind::TxBegin, 42),
    };
    for (const auto &e : events) {
        buf.push(e);
        direct.add(e);
    }
    EXPECT_EQ(direct.pmStores, buf.counters().pmStores);
    EXPECT_EQ(direct.pmNtStores, buf.counters().pmNtStores);
    EXPECT_EQ(direct.pmLoads, buf.counters().pmLoads);
    EXPECT_EQ(direct.pmFlushes, buf.counters().pmFlushes);
    EXPECT_EQ(direct.fences, buf.counters().fences);
    EXPECT_EQ(direct.dramLoads, buf.counters().dramLoads);
    EXPECT_EQ(direct.dramStores, buf.counters().dramStores);
    EXPECT_EQ(direct.pmStoreBytes, buf.counters().pmStoreBytes);
    EXPECT_EQ(direct.pmNtStoreBytes, buf.counters().pmNtStoreBytes);
    for (std::size_t c = 0; c < kDataClassCount; c++)
        EXPECT_EQ(direct.pmBytesByClass[c],
                  buf.counters().pmBytesByClass[c]);
}

TEST(Event, Names)
{
    EXPECT_STREQ(eventKindName(EventKind::PmStore), "pm_store");
    EXPECT_STREQ(eventKindName(EventKind::DramLoad), "dram_load");
    EXPECT_STREQ(dataClassName(DataClass::AllocMeta), "alloc");
}

} // namespace
} // namespace whisper::trace
