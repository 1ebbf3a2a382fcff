/**
 * @file
 * Heap for minimally-ordered durable (MOD) data structures.
 *
 * The paper's Consequences 3 and 8 blame undo/redo logging for the
 * suite's small epochs and write amplification; the authors'
 * follow-up (MOD: Minimally Ordered Durable Datastructures) removes
 * the log entirely: updates build a *shadow copy* of the changed
 * nodes, persist them with ordinary flushes, and commit with a single
 * 8-byte pointer swap after exactly one ordering fence. A durability
 * fence is issued only at durability points, many updates apart.
 *
 * ModHeap supplies the pieces every MOD structure needs, designed so
 * disjoint updates can run truly in parallel:
 *
 *  - per-thread allocator *arenas* with relaxed metadata persistence:
 *    each thread allocates shadow nodes from its own slab region, so
 *    allocation never contends a shared lock (and a thread's
 *    allocation addresses are independent of the interleaving — the
 *    crash fuzzer's deterministic replays rely on this). Bitmap words
 *    are written and flushed but never fenced on their own (they ride
 *    the update's single ofence); recovery rebuilds occupancy from
 *    the structure's reachable node set, so stale words are harmless;
 *  - per-thread *garbage lanes* with epoch-style grace: a node is
 *    retired when the swap that supersedes it is issued. At the
 *    retiring thread's next durability point the dfence proves the
 *    swap durable — the durable image can no longer name the node —
 *    but concurrent readers may still be walking it, so the node
 *    only becomes reclaimable once every other online thread has
 *    passed a quiescent point (durability point or readerQuiesce())
 *    after the retirement was batched. GC therefore never reclaims a
 *    node that is reachable from a durable root *or* visible to a
 *    racing reader.
 */

#ifndef WHISPER_MOD_MOD_HEAP_HH
#define WHISPER_MOD_MOD_HEAP_HH

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc/slab_alloc.hh"

namespace whisper::mod
{

/**
 * Slab allocator whose bitmap writes are flushed but not fenced.
 *
 * MOD recovery derives occupancy from reachability, so the persistent
 * bitmap is only a hint; deferring its fence to the structure's one
 * ordering point is what keeps a MOD update at a single epoch where
 * the NVML allocator pays one epoch per logged bitmap mutation.
 */
class ModAllocator : public alloc::SlabAllocator
{
  public:
    ModAllocator(pm::PmContext &ctx, Addr base, std::size_t size)
        : SlabAllocator(ctx, base, size)
    {
    }

    ModAllocator(Addr base, std::size_t size)
        : SlabAllocator(base, size)
    {
    }

    /** True iff @p off is the first byte of some slab block. */
    bool isBlockStart(Addr off) const;

    /**
     * Mark-and-sweep rebuild: occupancy becomes exactly @p live (every
     * entry must be a block start). Bitmaps are rewritten persistently;
     * the caller issues the closing durability fence.
     */
    void rebuildOccupancy(pm::PmContext &ctx,
                          const std::vector<Addr> &live);

  protected:
    void persistBitmapWord(pm::PmContext &ctx, Addr word_off,
                           std::uint64_t new_val) override;
};

/**
 * GC counters a ModHeap exposes (volatile, for tests and benches).
 * Atomic because concurrent threads retire/reclaim in parallel; the
 * fields read as plain integers.
 */
struct ModGcStats
{
    std::atomic<std::uint64_t> retired{0};    //!< nodes pushed on a lane
    std::atomic<std::uint64_t> reclaimed{0};  //!< nodes freed after grace
    std::atomic<std::uint64_t> durabilityPoints{0}; //!< dfences issued
};

/**
 * The MOD node heap: relaxed-persistence arenas + garbage lanes.
 *
 * Region layout starting at @c base:
 *
 *   [magic][per-thread GC lanes][arena 0][arena 1]...[arena N-1]
 *
 * A persistent lane is {clearedTo, entries[kGcEntries]}: retire()
 * publishes the superseded node's offset at slot count%kGcEntries
 * (one 8-byte TxMeta store riding the update's epoch) and
 * durabilityPoint() advances the persistent clearedTo watermark. The
 * ring is diagnostic: recovery clears the lanes wholesale and derives
 * occupancy from reachability, so a ring that wraps while grace
 * defers reclaim loses post-mortem visibility, never safety.
 */
class ModHeap
{
  public:
    static constexpr std::uint64_t kMagic = 0x4D4F444845415031ull;
    /** Ring slots per thread lane. */
    static constexpr std::uint64_t kGcEntries = 64;

    /** Format a heap over [base, base+size) (durably fenced). */
    ModHeap(pm::PmContext &ctx, Addr base, std::size_t size,
            unsigned max_threads);

    /** Attach after a crash; call recover() before any mutation. */
    ModHeap(Addr base, std::size_t size, unsigned max_threads);

    /**
     * Allocate a shadow node from the calling thread's arena (the
     * context's tid, folded onto the heap's lanes, picks it); adds no
     * ordering point and contends no cross-thread lock.
     */
    Addr alloc(pm::PmContext &ctx, std::size_t n);

    /**
     * Open an update: begin its transaction and allocate its shadow
     * nodes, @p bytes each, into @p out. When the arena runs dry the
     * nodes already carved out go on @p tid's garbage lane (nothing
     * reaches them, so the next durability point reclaims them), the
     * transaction is aborted and nullopt returned.
     */
    std::optional<TxId> beginShadows(pm::PmContext &ctx, ThreadId tid,
                                     std::span<Addr> out,
                                     std::size_t bytes);

    /**
     * Publish @p node on @p tid's garbage lane: it is superseded by a
     * swap issued in the current update and becomes reclaimable once
     * that swap is provably durable and every concurrent reader has
     * quiesced.
     */
    void retire(pm::PmContext &ctx, ThreadId tid, Addr node);

    /**
     * Durability point: dfence, then batch the nodes @p tid retired
     * since its last durability point, reclaim every batch whose
     * grace period has elapsed, and advance the lane's persistent
     * watermark.
     */
    void durabilityPoint(pm::PmContext &ctx, ThreadId tid);

    /**
     * Reader-side quiescent point: a thread that only reads (and
     * therefore never fences) still announces "I hold no references
     * into the structures" so writers' grace periods can elapse.
     */
    void readerQuiesce(ThreadId tid);

    /**
     * @p tid's workload is done: final durability point, leave the
     * grace protocol (so other threads stop waiting on this one), and
     * reclaim whatever ripened. Batches still inside another thread's
     * grace window stay unreclaimed — recovery sweeps them anyway.
     */
    void threadExit(pm::PmContext &ctx, ThreadId tid);

    /**
     * Post-crash recovery: occupancy := @p reachable (the structure's
     * mark phase), garbage lanes cleared, everything durably fenced.
     */
    void recover(pm::PmContext &ctx,
                 const std::vector<Addr> &reachable);

    /**
     * Recovery invariant: every lane ring is cleared (entries null,
     * watermark zero) and no reclaim is pending. Fills @p why on
     * violation.
     */
    bool gcQuiescent(pm::PmContext &ctx, std::string *why) const;

    /** True iff @p off is a block start currently marked allocated. */
    bool isLiveNode(Addr off) const;

    /** True iff @p off is the first byte of some slab block. */
    bool isBlockStart(Addr off) const;

    bool magicIntact(pm::PmContext &ctx) const;

    /**
     * Media-fault scrub (runs before recover()): claims every poisoned
     * line inside the heap region and rewrites the magic word if its
     * line was hit. All other heap damage is silently repairable —
     * lanes are cleared wholesale by recover(), bitmap words are
     * rebuilt from reachability, and a corrupted *reachable* node is
     * the structure scrub's problem (chain truncation), not the
     * heap's. Erases every heap-range line from @p lines.
     */
    void scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines);

    /** Aggregated allocator statistics over all arenas. */
    alloc::AllocStats allocStats() const;

    const ModGcStats &gcStats() const { return gc_; }
    unsigned maxThreads() const { return maxThreads_; }

  private:
    /**
     * Nodes retired before one durability point, plus the grace
     * snapshot: the batch is reclaimable once every other online
     * thread's quiesce count exceeds its snapshotted value.
     */
    struct GraceBatch
    {
        std::vector<Addr> nodes;
        std::vector<std::uint64_t> snap;
    };

    struct Lane
    {
        std::uint64_t count = 0;      //!< retires ever published
        std::vector<Addr> fresh;      //!< retired since last dpoint
        std::deque<GraceBatch> grace; //!< batches awaiting grace
        std::uint64_t pendingTotal = 0; //!< fresh + batched nodes
    };

    /** Bytes one persistent lane occupies (line-aligned). */
    static constexpr std::size_t
    laneBytes()
    {
        std::size_t raw = 8 + kGcEntries * 8;
        return (raw + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
    }

    Addr laneOff(ThreadId tid) const;
    Addr laneEntryOff(ThreadId tid, std::uint64_t slot) const;
    void layout();
    ModAllocator &arenaOf(Addr off) const;
    bool batchRipe(const GraceBatch &batch, ThreadId tid) const;
    void reclaimRipe(pm::PmContext &ctx, ThreadId tid);

    Addr base_;
    std::size_t size_;
    unsigned maxThreads_;
    Addr allocBase_;
    std::size_t arenaShare_; //!< line-aligned bytes per arena
    std::vector<std::unique_ptr<ModAllocator>> arenas_;
    std::vector<Lane> lanes_;
    /** Per-thread quiescent-point counters (the grace clock). */
    std::unique_ptr<std::atomic<std::uint64_t>[]> qcount_;
    /** Threads still participating in the grace protocol. */
    std::unique_ptr<std::atomic<bool>[]> online_;
    ModGcStats gc_;
};

} // namespace whisper::mod

#endif // WHISPER_MOD_MOD_HEAP_HH
