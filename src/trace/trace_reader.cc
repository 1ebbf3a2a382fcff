#include "trace/trace_reader.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "common/logging.hh"
#include "trace/trace_io.hh"

namespace whisper::trace
{

namespace
{

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** Why @p ev is malformed after an event at @p prevTs, or None. */
TraceReadError
checkEvent(const TraceEvent &ev, Tick prevTs)
{
    // DramStore and Durability end their enums.
    if (static_cast<std::uint8_t>(ev.kind) >
        static_cast<std::uint8_t>(EventKind::DramStore))
        return TraceReadError::BadKind;
    if (static_cast<std::size_t>(ev.cls) >= kDataClassCount)
        return TraceReadError::BadClass;
    if (ev.kind == EventKind::Fence &&
        ev.aux > static_cast<std::uint8_t>(FenceKind::Durability))
        return TraceReadError::BadFenceKind;
    if (ev.origin >= kOriginCount)
        return TraceReadError::BadOrigin;
    if (ev.ts < prevTs)
        return TraceReadError::BackwardTs;
    return TraceReadError::None;
}

} // namespace

const char *
traceReadErrorName(TraceReadError err)
{
    switch (err) {
    case TraceReadError::None: return "none";
    case TraceReadError::Io: return "io";
    case TraceReadError::BadHeader: return "bad-header";
    case TraceReadError::Truncated: return "truncated";
    case TraceReadError::ShortRead: return "short-read";
    case TraceReadError::DuplicateTid: return "duplicate-tid";
    case TraceReadError::BadKind: return "bad-kind";
    case TraceReadError::BadClass: return "bad-class";
    case TraceReadError::BadFenceKind: return "bad-fence-kind";
    case TraceReadError::BadOrigin: return "bad-origin";
    case TraceReadError::BackwardTs: return "backward-ts";
    }
    return "unknown";
}

std::uint64_t
TraceFileReader::totalEvents() const
{
    std::uint64_t n = 0;
    for (const auto &sec : sections_)
        n += sec.eventCount;
    return n;
}

bool
TraceFileReader::open(const std::string &path)
{
    path_.clear();
    sections_.clear();
    lastError_ = TraceReadError::None;

    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) {
        warn("cannot open trace file %s for reading", path.c_str());
        lastError_ = TraceReadError::Io;
        return false;
    }
    if (std::fseek(f.get(), 0, SEEK_END) != 0) {
        lastError_ = TraceReadError::Io;
        return false;
    }
    const long end = std::ftell(f.get());
    if (end < 0 || std::fseek(f.get(), 0, SEEK_SET) != 0) {
        lastError_ = TraceReadError::Io;
        return false;
    }
    const auto file_size = static_cast<std::uint64_t>(end);

    TraceFileHeader hdr{};
    if (std::fread(&hdr, sizeof(hdr), 1, f.get()) != 1) {
        warn("truncated trace header in %s", path.c_str());
        lastError_ = TraceReadError::Truncated;
        return false;
    }
    if (hdr.magic != kTraceMagic || hdr.version != kTraceVersion) {
        warn("bad trace header in %s", path.c_str());
        lastError_ = TraceReadError::BadHeader;
        return false;
    }
    // Walk the headers, bounding every section against the real file
    // size — a byte-truncated trace fails here, up front, instead of
    // aborting an analysis stream halfway through with a short read.
    std::uint64_t off = sizeof(TraceFileHeader);
    std::unordered_set<ThreadId> tids;
    for (std::uint32_t i = 0; i < hdr.threadCount; i++) {
        if (off + sizeof(TraceSectionHeader) > file_size) {
            warn("truncated section header in %s", path.c_str());
            sections_.clear();
            lastError_ = TraceReadError::Truncated;
            return false;
        }
        TraceSectionHeader sec{};
        if (std::fseek(f.get(), static_cast<long>(off), SEEK_SET) !=
                0 ||
            std::fread(&sec, sizeof(sec), 1, f.get()) != 1) {
            sections_.clear();
            lastError_ = TraceReadError::Io;
            return false;
        }
        off += sizeof(TraceSectionHeader);
        if (sec.eventCount > file_size / sizeof(TraceEvent) ||
            off + sec.eventCount * sizeof(TraceEvent) > file_size) {
            warn("truncated section payload in %s (section %u claims "
                 "%llu events)",
                 path.c_str(), i,
                 static_cast<unsigned long long>(sec.eventCount));
            sections_.clear();
            lastError_ = TraceReadError::Truncated;
            return false;
        }
        if (!tids.insert(sec.tid).second) {
            warn("duplicate section tid %u in %s", sec.tid,
                 path.c_str());
            sections_.clear();
            lastError_ = TraceReadError::DuplicateTid;
            return false;
        }
        sections_.push_back({sec.tid, sec.eventCount, off});
        off += sec.eventCount * sizeof(TraceEvent);
    }
    path_ = path;
    return true;
}

bool
TraceFileReader::streamSection(std::size_t index,
                               const EventChunkSink &sink,
                               std::size_t chunkEvents,
                               TraceReadFault *fault) const
{
    const auto fail = [&](TraceReadError e, std::uint64_t event = 0) {
        if (fault)
            *fault = {e, index, event};
        return false;
    };
    if (fault)
        *fault = {};
    if (index >= sections_.size() || chunkEvents == 0)
        return fail(TraceReadError::Io);
    const TraceSectionInfo &sec = sections_[index];

    // A private handle per stream keeps concurrent shards independent.
    FilePtr f(std::fopen(path_.c_str(), "rb"));
    if (!f) {
        warn("cannot reopen trace file %s", path_.c_str());
        return fail(TraceReadError::Io);
    }
    if (std::fseek(f.get(), static_cast<long>(sec.fileOffset),
                   SEEK_SET) != 0) {
        return fail(TraceReadError::Io);
    }

    std::vector<TraceEvent> chunk(
        std::min<std::size_t>(chunkEvents, sec.eventCount ?
                                               sec.eventCount : 1));
    std::uint64_t done = 0;
    Tick prevTs = 0;
    while (done < sec.eventCount) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(sec.eventCount - done,
                                    chunk.size()));
        if (std::fread(chunk.data(), sizeof(TraceEvent), want,
                       f.get()) != want) {
            warn("short read in section %zu of %s", index,
                 path_.c_str());
            return fail(TraceReadError::ShortRead);
        }
        for (std::size_t j = 0; j < want; j++) {
            const TraceReadError e = checkEvent(chunk[j], prevTs);
            if (e != TraceReadError::None)
                return fail(e, done + j);
            prevTs = chunk[j].ts;
        }
        sink(chunk.data(), want);
        done += want;
    }
    return true;
}

} // namespace whisper::trace
