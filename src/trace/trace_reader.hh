/**
 * @file
 * Chunked, seekable readers over on-disk trace files.
 *
 * readTraceFile() materializes a whole TraceSet in memory; these
 * readers instead expose the file as independently streamable
 * per-thread sections, so the analysis pipeline can fan sections out
 * across cores and iterate events in fixed-size chunks without ever
 * holding more than one chunk per shard in memory. The format itself
 * is specified in docs/TRACE_FORMAT.md.
 */

#ifndef WHISPER_TRACE_TRACE_READER_HH
#define WHISPER_TRACE_TRACE_READER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "trace/event.hh"

namespace whisper::trace
{

/** Location and size of one per-thread section inside a trace file. */
struct TraceSectionInfo
{
    ThreadId tid = 0;
    std::uint64_t eventCount = 0;
    std::uint64_t fileOffset = 0; //!< byte offset of the event array
};

/**
 * Why a reader call failed. open() validates every section's extent
 * against the real file size, so a byte-truncated trace is rejected
 * up front as Truncated instead of failing with a short read halfway
 * through an analysis stream. streamSection() checks every event it
 * hands out and rejects the first malformed one with one of the
 * event errors (BadKind onward).
 */
enum class TraceReadError
{
    None,      //!< the call succeeded
    Io,        //!< cannot open/seek the file
    BadHeader, //!< wrong magic or unsupported version
    Truncated, //!< headers claim more bytes than the file holds
    ShortRead, //!< payload vanished between open() and streaming
    DuplicateTid, //!< two sections name the same thread
    BadKind,   //!< kind byte is not an EventKind
    BadClass,  //!< cls byte is not a DataClass
    BadFenceKind, //!< a Fence whose aux byte is not a FenceKind
    BadOrigin, //!< origin byte >= kOriginCount
    BackwardTs, //!< ts below the previous event's in its section
};

/** Stable lowercase name for @p err ("none", "io", ...). */
const char *traceReadErrorName(TraceReadError err);

/** A failed read: what went wrong and, for a bad event, where. */
struct TraceReadFault
{
    TraceReadError error = TraceReadError::None;
    std::size_t section = 0; //!< failing section (stream errors)
    std::uint64_t event = 0; //!< event index within the section

    /** True for the errors that name one event (BadKind onward). */
    bool
    badEvent() const
    {
        return error >= TraceReadError::BadKind;
    }
};

/** Callback receiving one chunk of events in program order. */
using EventChunkSink =
    std::function<void(const TraceEvent *events, std::size_t count)>;

/**
 * Index of a trace file's sections, built from the headers alone.
 *
 * open() reads the file header and each section header, seeking over
 * the event payloads, so indexing a multi-gigabyte trace costs a few
 * reads. Sections can then be streamed independently — each
 * streamSection() call opens its own file handle, so concurrent
 * shards never share a seek position.
 */
class TraceFileReader
{
  public:
    /** Events per chunk handed to the sink (1 MiB of events). */
    static constexpr std::size_t kDefaultChunkEvents =
        (1u << 20) / sizeof(TraceEvent);

    /**
     * Index @p path. Returns false (and leaves the reader empty) on
     * I/O failure, bad magic, an unsupported version, a file too
     * short for the sections its headers describe, or two sections
     * with one tid; lastError() then says which.
     */
    bool open(const std::string &path);

    /** Outcome of the last open() call. */
    TraceReadError lastError() const { return lastError_; }

    const std::string &path() const { return path_; }

    /** Per-thread sections in file order (== recording tid order). */
    const std::vector<TraceSectionInfo> &sections() const
    {
        return sections_;
    }

    std::size_t threadCount() const { return sections_.size(); }

    /** Sum of all sections' event counts. */
    std::uint64_t totalEvents() const;

    /**
     * Stream section @p index through @p sink in program order,
     * @p chunkEvents events at a time. Thread-safe against concurrent
     * streamSection() calls on the same reader. Every event is
     * checked before its chunk is handed out; the first malformed
     * one stops the stream. Returns false on I/O failure or a
     * malformed event, reporting the cause, and for an event its
     * index, through @p fault when given (the per-call out-param
     * keeps concurrent shards race-free; open() already bounds every
     * section, so ShortRead here means the file shrank after
     * indexing).
     */
    bool streamSection(std::size_t index, const EventChunkSink &sink,
                       std::size_t chunkEvents = kDefaultChunkEvents,
                       TraceReadFault *fault = nullptr) const;

  private:
    std::string path_;
    std::vector<TraceSectionInfo> sections_;
    TraceReadError lastError_ = TraceReadError::None;
};

} // namespace whisper::trace

#endif // WHISPER_TRACE_TRACE_READER_HH
