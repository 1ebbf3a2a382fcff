/**
 * @file
 * The per-thread sections of a trace, in memory or on disk, and the
 * one shard driver every trace reader (pipeline.hh, optimize.hh)
 * runs over them.
 *
 * An analysis writes one shard body over a TraceSection; the driver
 * runs it on every section of a TraceSet or of a trace file, then
 * joins. A file section can fail to read; the first failing section
 * in file order names the failure, so the report does not depend on
 * which worker failed first.
 */

#ifndef WHISPER_ANALYSIS_TRACE_SECTIONS_HH
#define WHISPER_ANALYSIS_TRACE_SECTIONS_HH

#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_set.hh"

namespace whisper::analysis
{

/**
 * One thread's events: a TraceSet buffer, or section @p index of an
 * indexed trace file.
 */
struct TraceSection
{
    ThreadId tid = 0;
    /**
     * The in-memory buffer, or nullptr for a file section. Its
     * counters include bulk-counted DRAM accesses that no event
     * carries, so a shard over a buffer takes them from here.
     */
    const trace::TraceBuffer *buffer = nullptr;
    const trace::TraceFileReader *reader = nullptr;
    std::size_t index = 0;

    /**
     * Hand every event to @p sink in program order, in non-empty
     * chunks. Returns false, saying why through @p fault, when a file
     * section cannot be read or holds a malformed event.
     */
    bool
    stream(const trace::EventChunkSink &sink,
           trace::TraceReadFault &fault) const
    {
        if (buffer) {
            buffer->forEachChunk(sink);
            return true;
        }
        return reader->streamSection(
            index, sink, trace::TraceFileReader::kDefaultChunkEvents,
            &fault);
    }
};

/**
 * Run @p body(section) on @p pool for every section of @p traces, or
 * of the trace file @p reader indexed (give one, the other null), into
 * @p shards in section order; each result carries the `fault` its
 * stream reported. Returns false when a section failed, reporting
 * the first failing one in file order through @p fault when given.
 */
template <typename Shard, typename Body>
bool
shardSections(ThreadPool &pool, const trace::TraceSet *traces,
              const trace::TraceFileReader *reader, Body &&body,
              std::vector<Shard> &shards, trace::TraceReadFault *fault)
{
    std::vector<TraceSection> sections;
    if (traces) {
        for (const auto &buf : traces->buffers())
            sections.push_back({buf->tid(), buf.get(), nullptr, 0});
    } else {
        for (std::size_t i = 0; i < reader->threadCount(); i++)
            sections.push_back({reader->sections()[i].tid, nullptr,
                                reader, i});
    }
    shards = pool.map(sections.size(),
                      [&](std::size_t i) { return body(sections[i]); });
    for (const Shard &shard : shards) {
        if (shard.fault.error != trace::TraceReadError::None) {
            if (fault)
                *fault = shard.fault;
            return false;
        }
    }
    return true;
}

/**
 * Index the trace file at @p path into @p reader. Returns false, with
 * why in @p fault when given, if the reader refuses it.
 */
inline bool
openTrace(const std::string &path, trace::TraceFileReader &reader,
          trace::TraceReadFault *fault)
{
    if (reader.open(path))
        return true;
    if (fault)
        *fault = {reader.lastError()};
    return false;
}

} // namespace whisper::analysis

#endif // WHISPER_ANALYSIS_TRACE_SECTIONS_HH
