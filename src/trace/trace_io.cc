#include "trace/trace_io.hh"

#include <cstdio>
#include <memory>

#include "common/logging.hh"

namespace whisper::trace
{

namespace
{

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool
writePod(std::FILE *f, const T &value)
{
    return std::fwrite(&value, sizeof(T), 1, f) == 1;
}

} // namespace

bool
writeTraceFile(const std::string &path, const TraceSet &traces)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f) {
        warn("cannot open trace file %s for writing", path.c_str());
        return false;
    }
    TraceFileHeader hdr{kTraceMagic, kTraceVersion,
                        static_cast<std::uint32_t>(
                            traces.threadCount())};
    if (!writePod(f.get(), hdr))
        return false;
    for (const auto &buf : traces.buffers()) {
        TraceSectionHeader sec{buf->tid(), 0,
                               static_cast<std::uint64_t>(
                                   buf->size())};
        if (!writePod(f.get(), sec))
            return false;
        bool ok = true;
        buf->forEachChunk([&](const TraceEvent *events, std::size_t n) {
            ok = ok && std::fwrite(events, sizeof(TraceEvent), n,
                                   f.get()) == n;
        });
        if (!ok)
            return false;
    }
    return true;
}

bool
readTraceFile(const std::string &path, TraceSet &traces,
              TraceReadFault *fault)
{
    panic_if(traces.threadCount() != 0,
             "readTraceFile into a non-empty TraceSet");
    TraceFileReader reader;
    if (!reader.open(path)) {
        if (fault)
            *fault = {reader.lastError()};
        return false;
    }
    for (std::size_t i = 0; i < reader.sections().size(); i++) {
        TraceBuffer *buf =
            traces.createBuffer(reader.sections()[i].tid);
        buf->setRecordVolatile(true);
        const bool ok = reader.streamSection(
            i,
            [&](const TraceEvent *events, std::size_t count) {
                buf->append(events, count);
            },
            TraceFileReader::kDefaultChunkEvents, fault);
        if (!ok)
            return false;
    }
    return true;
}

} // namespace whisper::trace
