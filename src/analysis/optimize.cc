#include "analysis/optimize.hh"

#include <algorithm>

#include "analysis/trace_sections.hh"

namespace whisper::analysis
{

void
OptimizeSummary::merge(const OptimizeSummary &other)
{
    totalFlushes += other.totalFlushes;
    flushRedirtied += other.flushRedirtied;
    flushClean += other.flushClean;
    totalFences += other.totalFences;
    fenceNoConflict += other.fenceNoConflict;
    fenceCoalescible += other.fenceCoalescible;
    for (std::size_t i = 0; i < byOrigin.size(); i++)
        byOrigin[i].merge(other.byOrigin[i]);
}

std::vector<ElisionSuggestion>
suggestElisions(const OptimizeSummary &summary)
{
    // Origins whose redundancy a named ElisionPolicy bit can act on
    // (the mechanically-safe subset; see txlib/elision.hh for the
    // per-site recovery arguments).
    auto policyFor = [](trace::Origin origin) -> const char * {
        switch (origin) {
          case trace::Origin::MneCommitApply:
            return "mne-commit-apply";
          case trace::Origin::NvmlClearLog:
            return "nvml-clear-log";
          case trace::Origin::NvmlCommitFlush:
            return "nvml-commit-fence";
          default:
            return "";
        }
    };
    std::vector<ElisionSuggestion> out;
    for (std::size_t i = 0; i < summary.byOrigin.size(); i++) {
        const OriginCounts &counts = summary.byOrigin[i];
        if (counts.redundantFlushes == 0 && counts.redundantFences == 0)
            continue;
        ElisionSuggestion s;
        s.origin = static_cast<trace::Origin>(i);
        s.counts = counts;
        s.policy = policyFor(s.origin);
        out.push_back(s);
    }
    return out;
}

ThreadOptimizeAccumulator::ThreadOptimizeAccumulator(ThreadId tid)
    : tid_(tid)
{
}

void
ThreadOptimizeAccumulator::touchLine(LineAddr line)
{
    if (prevFenceActive_ && !prevFenceConflict_ &&
        prevFenceLines_.count(line)) {
        prevFenceConflict_ = true;
    }
    curTouched_.insert(line);
}

void
ThreadOptimizeAccumulator::noteStore(const trace::TraceEvent &ev)
{
    intervalHasOps_ = true;
    const LineAddr first = lineOf(ev.addr);
    const LineAddr last =
        lineOf(ev.addr + (ev.size ? ev.size - 1 : 0));
    for (LineAddr line = first; line <= last; line++) {
        touchLine(line);
        auto it = lineState_.find(line);
        if (it != lineState_.end() && it->second == LineState::Pending) {
            // Re-store of a flushed-but-unfenced line: the flush that
            // queued the writeback persists bytes that are already
            // stale — category (a) once all its lines re-dirty.
            auto pit = pendingByLine_.find(line);
            if (pit != pendingByLine_.end()) {
                PendingFlush &pf = pendingFlushes_[pit->second];
                if (!pf.resolved && --pf.remaining == 0) {
                    pf.resolved = true;
                    summary_.flushRedirtied++;
                    summary_.byOrigin[pf.origin < trace::kOriginCount
                                          ? pf.origin
                                          : 0]
                        .redundantFlushes++;
                }
                pendingByLine_.erase(pit);
            }
        }
        lineState_[line] = LineState::Dirty;
    }
}

void
ThreadOptimizeAccumulator::noteFlush(const trace::TraceEvent &ev)
{
    intervalHasOps_ = true;
    const std::uint8_t origin =
        ev.origin < trace::kOriginCount ? ev.origin : 0;
    summary_.totalFlushes++;
    summary_.byOrigin[origin].flushes++;

    const LineAddr first = lineOf(ev.addr);
    const LineAddr last =
        lineOf(ev.addr + (ev.size ? ev.size - 1 : 0));
    unsigned dirty = 0;
    for (LineAddr line = first; line <= last; line++) {
        touchLine(line);
        auto it = lineState_.find(line);
        if (it != lineState_.end() && it->second == LineState::Dirty)
            dirty++;
    }
    if (dirty == 0) {
        // No covered line carries unpersisted bytes: the writeback
        // moves nothing — category (b).
        summary_.flushClean++;
        summary_.byOrigin[origin].redundantFlushes++;
        return;
    }
    // Required so far; arm (a) detection on the dirty lines. A line
    // already awaiting resolution keeps its earlier flush record (a
    // second flush of a Pending line was counted clean above).
    pendingFlushes_.push_back({origin, dirty, false});
    const std::size_t idx = pendingFlushes_.size() - 1;
    for (LineAddr line = first; line <= last; line++) {
        auto it = lineState_.find(line);
        if (it != lineState_.end() && it->second == LineState::Dirty) {
            it->second = LineState::Pending;
            pendingByLine_[line] = idx;
        }
    }
}

void
ThreadOptimizeAccumulator::resolvePrevFence()
{
    if (!prevFenceActive_)
        return;
    if (!prevFenceConflict_) {
        // The epochs on either side share no line: the fence ordered
        // nothing the next fence does not also order — category (c).
        summary_.fenceNoConflict++;
        summary_.byOrigin[prevFenceOrigin_ < trace::kOriginCount
                              ? prevFenceOrigin_
                              : 0]
            .redundantFences++;
    }
    prevFenceActive_ = false;
    prevFenceConflict_ = false;
    prevFenceLines_.clear();
}

void
ThreadOptimizeAccumulator::noteFence(const trace::TraceEvent &ev)
{
    const std::uint8_t origin =
        ev.origin < trace::kOriginCount ? ev.origin : 0;
    summary_.totalFences++;
    summary_.byOrigin[origin].fences++;

    resolvePrevFence();

    if (ev.fenceKind() == trace::FenceKind::Durability) {
        // Coalescible pair (d): a durability fence inside a
        // transaction whose epoch is empty — the previous fence
        // already drained everything this one would.
        if (fenceSeen_ && !intervalHasOps_ && curTx_ != 0 &&
            !intervalTxBoundary_) {
            summary_.fenceCoalescible++;
            summary_.byOrigin[origin].redundantFences++;
        }
    } else {
        // Ordering fence: verdict depends on the epoch that follows;
        // defer until the next fence (or finish()).
        prevFenceActive_ = true;
        prevFenceConflict_ = false;
        prevFenceOrigin_ = origin;
        prevFenceLines_ = std::move(curTouched_);
    }

    // The fence drains this thread's queued writebacks: flushed lines
    // with no later store become clean. Unresolved (a) candidates
    // stay counted as required.
    for (const auto &entry : pendingByLine_)
        lineState_.erase(entry.first);
    pendingByLine_.clear();
    pendingFlushes_.clear();

    curTouched_.clear();
    intervalHasOps_ = false;
    intervalTxBoundary_ = false;
    fenceSeen_ = true;
}

void
ThreadOptimizeAccumulator::add(const trace::TraceEvent &ev)
{
    switch (ev.kind) {
      case trace::EventKind::PmStore:
      case trace::EventKind::PmNtStore:
        noteStore(ev);
        break;
      case trace::EventKind::PmFlush:
        noteFlush(ev);
        break;
      case trace::EventKind::Fence:
        noteFence(ev);
        break;
      case trace::EventKind::TxBegin:
        curTx_ = ev.addr;
        intervalTxBoundary_ = true;
        break;
      case trace::EventKind::TxEnd:
      case trace::EventKind::TxAbort:
        curTx_ = 0;
        intervalTxBoundary_ = true;
        break;
      default:
        break; // loads and DRAM traffic do not affect persistence
    }
}

void
ThreadOptimizeAccumulator::finish()
{
    // A trailing ordering fence is resolved against the open tail
    // epoch: whatever conflicts it had have been observed by now.
    resolvePrevFence();
}

namespace
{

struct OptimizeShard
{
    OptimizeSummary summary;
    std::uint64_t eventCount = 0;
    trace::TraceReadFault fault;
};

/** The shard body: classify one thread's section. */
OptimizeShard
optimizeSection(const TraceSection &section)
{
    OptimizeShard shard;
    ThreadOptimizeAccumulator acc(section.tid);
    const bool ok = section.stream(
        [&](const trace::TraceEvent *events, std::size_t count) {
            shard.eventCount += count;
            acc.addChunk(events, count);
        },
        shard.fault);
    if (ok) {
        acc.finish();
        shard.summary = acc.summary();
    }
    return shard;
}

/** Shard every section of the trace, then join; false on a fault. */
bool
optimizeSections(const trace::TraceSet *traces,
                 const trace::TraceFileReader *reader,
                 const OptimizeOptions &options, OptimizeResult &out,
                 trace::TraceReadFault *fault)
{
    ThreadPool pool(options.jobs);
    std::vector<OptimizeShard> shards;
    if (!shardSections(pool, traces, reader, optimizeSection, shards,
                       fault))
        return false;
    out = OptimizeResult();
    out.threadCount = shards.size();
    for (const OptimizeShard &shard : shards) {
        out.totalEvents += shard.eventCount;
        out.summary.merge(shard.summary);
    }
    return true;
}

} // namespace

OptimizeResult
optimizeTraces(const trace::TraceSet &traces,
               const OptimizeOptions &options)
{
    OptimizeResult out;
    optimizeSections(&traces, nullptr, options, out, nullptr);
    return out;
}

bool
optimizeTraceFile(const std::string &path, OptimizeResult &out,
                  const OptimizeOptions &options,
                  trace::TraceReadFault *fault)
{
    trace::TraceFileReader reader;
    return openTrace(path, reader, fault) &&
           optimizeSections(nullptr, &reader, options, out, fault);
}

} // namespace whisper::analysis
