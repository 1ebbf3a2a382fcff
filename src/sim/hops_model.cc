/**
 * @file
 * The HOPS persistency model: split per-thread persist buffers,
 * ofence/dfence, epoch timestamps, coherence-gleaned cross-thread
 * dependencies and counting Bloom filters (paper §6).
 *
 * Mapping from traces: the applications are written in the current
 * x86 style, so their traces contain clwb (PmFlush) events and fences
 * tagged Ordering or Durability by the instrumentation. On HOPS the
 * same program would drop every clwb, use ofence at ordering points
 * and dfence at commits — so this model elides flushes, makes
 * Ordering fences one-cycle timestamp bumps, and drains the persist
 * buffer at Durability fences.
 */

#include <deque>
#include <vector>

#include "common/logging.hh"
#include "sim/bloom.hh"
#include "sim/persist_model.hh"

namespace whisper::sim
{

namespace
{

/** One buffered epoch in a persist buffer. */
struct PbEpoch
{
    std::uint64_t ts = 0;
    std::vector<LineAddr> lines;
    /** Conservative cross-thread dependency: (core, epoch ts). */
    std::vector<std::pair<unsigned, std::uint64_t>> deps;
};

class HopsModel : public PersistModel
{
  public:
    explicit HopsModel(const SimParams &params)
        : PersistModel(params), threads_(params.cores)
    {
        for (auto &t : threads_)
            t.open.ts = 1;
    }

    std::uint64_t
    onPmStore(unsigned core, LineAddr line) override
    {
        return bufferLine(core, line);
    }

    std::uint64_t
    onPmNtStore(unsigned core, LineAddr line) override
    {
        // HOPS tracks NT updates in the PB as well; they simply skip
        // the cache fill on the functional side.
        return bufferLine(core, line);
    }

    std::uint64_t
    onFlush(unsigned core, LineAddr line) override
    {
        (void)core;
        (void)line;
        // HOPS hardware persists in the background; the clwb the
        // x86-style source emitted costs nothing here.
        stats_.flushesElided++;
        return 0;
    }

    std::uint64_t
    onFence(unsigned core, trace::FenceKind kind) override
    {
        Thread &t = threads_[core];
        closeEpoch(t);
        // Epochs closed a few ordering points ago have had the slack
        // to retire in the background (moving write-backs off the
        // critical path is what the PBs are for); the youngest few
        // are still in flight — visible for coherence gleaning and
        // paid for by the next dfence.
        while (t.queued.size() > kInFlightEpochs)
            drainOldest(core, false);
        if (kind == trace::FenceKind::Ordering)
            return 1; // ofence: a local timestamp bump

        // dfence: stall until this thread's PB is clean — i.e. until
        // the in-flight epoch's writes are ACKed as durable.
        std::uint64_t stall = 1;
        while (!t.queued.empty())
            stall += drainOldest(core, true);
        stats_.fenceStalls += stall;
        return stall;
    }

    void
    onOwnershipTransfer(unsigned from, unsigned to,
                        LineAddr line) override
    {
        // The thread acquiring exclusive permissions learns the
        // source thread and its *current* epoch timestamp
        // (conservative, as in §6.3).
        if (from == to)
            return;
        Thread &src = threads_[from];
        if (!src.bloom.mightContain(line))
            return;
        threads_[to].open.deps.emplace_back(from, src.open.ts);
        stats_.crossDepWaits++;
    }

    std::uint64_t
    onLlcMiss(unsigned core, LineAddr line) override
    {
        (void)core;
        // A miss whose line may still sit in some PB back end stalls
        // until the write-back completes (rare; §6.3).
        for (unsigned c = 0; c < threads_.size(); c++) {
            if (threads_[c].bloom.mightContain(line)) {
                stats_.missStalls += persistLatency();
                return persistLatency();
            }
        }
        return 0;
    }

    std::uint64_t
    finish(unsigned core) override
    {
        Thread &t = threads_[core];
        if (t.open.lines.empty() && t.queued.empty())
            return 0;
        return onFence(core, trace::FenceKind::Durability);
    }

  private:
    /** Closed epochs assumed still in flight at any moment. */
    static constexpr std::size_t kInFlightEpochs = 1;

    struct Thread
    {
        PbEpoch open;
        std::deque<PbEpoch> queued;
        std::uint64_t occupancy = 0;   //!< buffered PB entries
        std::uint64_t drainedTs = 0;   //!< newest fully durable epoch
        CountingBloom bloom;
    };

    void
    closeEpoch(Thread &t)
    {
        if (t.open.lines.empty() && t.open.deps.empty()) {
            t.open.ts++;
            return;
        }
        PbEpoch closed = std::move(t.open);
        t.open = PbEpoch{};
        t.open.ts = closed.ts + 1;

        // Epoch coalescing (future-work optimization, §6.3): merge
        // into the previous queued epoch when neither side carries
        // cross-thread dependencies. Draining them together is
        // strictly stronger than draining them in order, so crash
        // consistency is preserved — and repeated lines deduplicate,
        // which is exactly what the paper's abundant same-thread
        // self-dependencies make profitable.
        if (params_.pbCoalesce && !t.queued.empty() &&
            t.queued.back().deps.empty() && closed.deps.empty()) {
            PbEpoch &prev = t.queued.back();
            for (const LineAddr line : closed.lines) {
                bool dup = false;
                for (const LineAddr l : prev.lines)
                    dup |= l == line;
                if (dup) {
                    // The duplicate entry disappears (multi-version
                    // collapse); release its PB slot + filter count.
                    t.bloom.remove(line);
                    t.occupancy--;
                    stats_.epochsCoalesced++;
                } else {
                    prev.lines.push_back(line);
                }
            }
            prev.ts = closed.ts;
            return;
        }
        t.queued.push_back(std::move(closed));
    }

    /** Cycles to write one epoch back. */
    std::uint64_t
    epochDrainCost(const std::vector<LineAddr> &lines)
    {
        if (params_.dpoMode) {
            // BSP under x86-TSO: updates within an epoch flush
            // serially, and every write-back is broadcast.
            std::uint64_t cost = 0;
            for (const LineAddr line : lines)
                cost += device().persistCost(line) + kDpoBroadcastCost;
            return cost;
        }
        return device().drainLines(lines);
    }

    static constexpr std::uint64_t kDpoBroadcastCost = 8;

    std::uint64_t
    bufferLine(unsigned core, LineAddr line)
    {
        Thread &t = threads_[core];
        for (const LineAddr l : t.open.lines) {
            if (l == line)
                return 0; // coalesced within the epoch
        }
        t.open.lines.push_back(line);
        t.bloom.insert(line);
        t.occupancy++;

        std::uint64_t stall = 0;
        if (t.occupancy > params_.pbEntries) {
            // PB full: the store stalls until the oldest epoch is
            // written back.
            if (!t.queued.empty()) {
                const std::uint64_t cost = drainOldest(core, true);
                stats_.pbFullStalls += cost;
                stall += cost;
            } else {
                // One giant open epoch: split it (the paper's
                // epoch-splitting deadlock avoidance) and drain.
                closeEpoch(t);
                const std::uint64_t cost = drainOldest(core, true);
                stats_.pbFullStalls += cost;
                stall += cost;
            }
        } else if (t.occupancy >= params_.pbDrainThreshold &&
                   !t.queued.empty()) {
            // Background drain: off the critical path.
            drainOldest(core, false);
        }
        return stall;
    }

    /**
     * Write back the oldest queued epoch of @p core.
     * @param on_critical_path charge the cycles to the caller.
     * @return cycles the core stalls (0 for background drains).
     */
    std::uint64_t
    drainOldest(unsigned core, bool on_critical_path)
    {
        Thread &t = threads_[core];
        panic_if(t.queued.empty(), "drain of an empty persist buffer");
        PbEpoch epoch = std::move(t.queued.front());
        t.queued.pop_front();

        std::uint64_t stall = 0;
        // Honour cross-thread ordering: the source epochs must be
        // durable first (global TS vector lookup at the LLC).
        for (const auto &[src, ts] : epoch.deps) {
            Thread &s = threads_[src];
            while (s.drainedTs < ts && !s.queued.empty())
                stall += drainOldest(src, on_critical_path);
        }

        stall += epochDrainCost(epoch.lines);
        stats_.linesDrained += epoch.lines.size();
        for (const LineAddr line : epoch.lines)
            t.bloom.remove(line);
        t.occupancy -= epoch.lines.size();
        t.drainedTs = epoch.ts;
        stats_.epochsDrained++;
        return on_critical_path ? stall : 0;
    }

    std::vector<Thread> threads_;
};

} // namespace

std::unique_ptr<PersistModel>
makeHopsModel(const SimParams &params)
{
    return std::make_unique<HopsModel>(params);
}

} // namespace whisper::sim
