/**
 * @file
 * Binary serialization of trace sets.
 *
 * The on-disk format is a fixed header followed by one section per
 * thread: {tid, event count, raw TraceEvent array}. Traces written by
 * an application run can be re-analysed or replayed through the timing
 * simulator without re-running the application. The byte-level layout
 * is specified in docs/TRACE_FORMAT.md; trace_reader.hh provides
 * chunked streaming access to the same files.
 */

#ifndef WHISPER_TRACE_TRACE_IO_HH
#define WHISPER_TRACE_TRACE_IO_HH

#include <string>

#include "trace/trace_reader.hh"
#include "trace/trace_set.hh"

namespace whisper::trace
{

/** Magic bytes at the front of a trace file. */
constexpr std::uint64_t kTraceMagic = 0x5748495350455231ull; // "WHISPER1"

/** Current (and only) on-disk format version. */
constexpr std::uint32_t kTraceVersion = 1;

/**
 * File header: one per trace file, written verbatim in host byte
 * order (the format is little-endian; see docs/TRACE_FORMAT.md).
 */
struct TraceFileHeader
{
    std::uint64_t magic;       //!< kTraceMagic
    std::uint32_t version;     //!< kTraceVersion
    std::uint32_t threadCount; //!< number of sections that follow
};

static_assert(sizeof(TraceFileHeader) == 16,
              "trace file header layout drifted");

/** Section header: one per recorded thread, preceding its events. */
struct TraceSectionHeader
{
    std::uint32_t tid;         //!< recording thread id
    std::uint32_t pad;         //!< zero; reserved
    std::uint64_t eventCount;  //!< TraceEvents following this header
};

static_assert(sizeof(TraceSectionHeader) == 16,
              "trace section header layout drifted");

/** Serialize @p traces to @p path. Returns false on I/O failure. */
bool writeTraceFile(const std::string &path, const TraceSet &traces);

/**
 * Load a trace file into @p traces (which must be empty). Returns
 * false on I/O failure, format mismatch or a malformed event (see
 * TraceFileReader::streamSection), reporting why through @p fault
 * when given.
 */
bool readTraceFile(const std::string &path, TraceSet &traces,
                   TraceReadFault *fault = nullptr);

} // namespace whisper::trace

#endif // WHISPER_TRACE_TRACE_IO_HH
