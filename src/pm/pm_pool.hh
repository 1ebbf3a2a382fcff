/**
 * @file
 * Software persistent-memory device.
 *
 * A PmPool holds two byte images of the same pool:
 *
 *  - the *architectural* image — what loads observe; updated by every
 *    store immediately (it plays the role of the cache hierarchy plus
 *    the memory), and
 *  - the *durable* image — what survives a simulated power failure;
 *    updated only when lines are persisted (flush + fence, NT store +
 *    fence, or explicit eviction).
 *
 * This split implements exactly the x86-64 persistency contract the
 * paper's applications program against: data is durable only once a
 * clwb/NT store has been fenced; anything merely dirty may or may not
 * survive a crash (write-back caches can evict at any time). The
 * crash() entry point resolves each such "may" with a seeded RNG, so
 * property tests can sweep adversarial crash outcomes.
 *
 * Persistent data structures store POff<T> offsets, never pointers;
 * offsets remain valid across crash()/recover().
 *
 * Both images and the per-line dirty and poison bytes live in
 * kernel-zeroed anonymous mappings (LazyRegion), so a pool costs time
 * and memory in proportion to the 4 KiB pages written, not to its
 * size. A written-page map (one bit per 4 KiB of the pool, set on the
 * first write of any of the four arrays in that page and never
 * cleared) bounds every whole-pool walk: the dirty and poisoned line
 * lists, the crash's survivor draw and its durable-to-architectural
 * reload visit only marked pages, in ascending line order.
 */

#ifndef WHISPER_PM_PM_POOL_HH
#define WHISPER_PM_PM_POOL_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/dimm.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "pm/fault_plan.hh"
#include "common/lazy_region.hh"

namespace whisper::pm
{

/**
 * A snapshot of a pool's persist-traffic counters, taken by
 * PmPool::stats(). Concurrent app threads keep persisting while it is
 * taken, so each field is exact only once they have stopped.
 */
struct PoolStats
{
    std::uint64_t linesPersisted = 0;     //!< drains to durable
    std::uint64_t linesEvicted = 0;       //!< random evictions
    std::uint64_t linesSurvivedCrash = 0; //!< kept by a crash
    std::uint64_t crashes = 0;            //!< crash() calls
    std::uint64_t linesTorn = 0;          //!< word-torn at crash
    std::uint64_t linesPoisoned = 0;      //!< lost to media
    std::uint64_t poisonCleared = 0;      //!< re-programmed
    std::uint64_t linesScrubbed = 0;      //!< scrubLine() calls
    std::uint64_t transientFaults = 0;    //!< retried reads
    std::uint64_t mediaErrors = 0;        //!< PmMediaError raised
    /** Per-DIMM persist traffic (indexed by PmPool::dimmOf). */
    std::array<std::uint64_t, kMaxDimms> dimmLinesPersisted{};
};

/**
 * The simulated PM device (one pool == one DAX mapping).
 */
class PmPool
{
  public:
    /**
     * The pool's DIMM geometry: the simulator's four-DIMM platform at
     * 256 B interleaving. It only affects per-DIMM statistics, never
     * data.
     */
    static constexpr DimmConfig kDimms{4, 4};

    /** Create a pool of @p size bytes, zero-filled and clean. */
    explicit PmPool(std::size_t size);

    std::size_t size() const { return size_; }
    std::size_t lineCount() const { return lines_; }

    /** Home DIMM of @p off: pure in (off, kDimms). */
    unsigned dimmOf(Addr off) const
    {
        return kDimms.dimmOf(lineOf(off));
    }

    /** @{ Raw image access (bounds-checked in at()/durableAt()). */
    std::uint8_t *archBase() { return arch_.data(); }
    const std::uint8_t *archBase() const { return arch_.data(); }
    const std::uint8_t *durableBase() const { return durable_.data(); }
    /** @} */

    /**
     * Typed pointer into the architectural image.
     * Valid until the next crash()/recover().
     */
    template <typename T>
    T *
    at(Addr off)
    {
        boundsCheck(off, sizeof(T));
        return reinterpret_cast<T *>(arch_.data() + off);
    }

    template <typename T>
    const T *
    at(Addr off) const
    {
        boundsCheck(off, sizeof(T));
        return reinterpret_cast<const T *>(arch_.data() + off);
    }

    /** Typed pointer into the durable image (post-mortem inspection). */
    template <typename T>
    const T *
    durableAt(Addr off) const
    {
        boundsCheck(off, sizeof(T));
        return reinterpret_cast<const T *>(durable_.data() + off);
    }

    /** Offset of a pointer that is known to point into the arch image. */
    Addr offsetOf(const void *p) const;

    /** True if @p p points inside the architectural image. */
    bool contains(const void *p) const;

    /** @{ Device-level operations used by PmContext. */

    /** Apply a store to the architectural image; marks lines dirty. */
    void applyStore(Addr off, const void *src, std::size_t n);

    /**
     * Atomic 8-byte compare-and-swap on the architectural image: the
     * MOD structures' bucket/root-slot commit point. Succeeds (and
     * marks the line dirty) iff the current value equals @p expected.
     */
    bool applyCas64(Addr off, std::uint64_t expected,
                    std::uint64_t desired);

    /**
     * Read @p n bytes of the architectural image into @p dst, atomically
     * with respect to concurrent applyStore/applyCas64 on the same
     * lines (a reader never observes a torn 8-byte commit).
     */
    void applyLoad(Addr off, void *dst, std::size_t n) const;

    /** Copy one line arch -> durable and mark it clean. */
    void persistLine(LineAddr line);

    /** Persist every line overlapping [off, off+n). */
    void persistRange(Addr off, std::size_t n);

    /** @} */

    /** True if the line differs (dirty) from the durable image. */
    bool lineDirty(LineAddr line) const;

    /** Number of currently dirty lines (written-page walk). */
    std::uint64_t dirtyLineCount() const;

    /** All currently dirty lines, ascending (crash-fuzz helper). */
    std::vector<LineAddr> dirtyLines() const;

    /**
     * Resolve a crash's "may survive" set without crashing: each
     * currently dirty line is kept with probability @p survival.
     * Depends only on (@p rng state, dirty set), so a fuzz case can
     * reproduce — or override — the exact survivor set.
     */
    std::vector<LineAddr> pickSurvivors(Rng &rng,
                                        double survival) const;

    /**
     * Simulate a power failure.
     *
     * Every dirty line independently persists with probability
     * @p survival (a write-back cache may have evicted it at any
     * point); everything else keeps its last durable value. The
     * architectural image is then reloaded from the durable image,
     * exactly as a re-mount after power-up would see it.
     */
    void crash(Rng &rng, double survival = 0.5);

    /**
     * Like crash() but nothing un-persisted survives: the strictest
     * legal outcome (also the most common in tests, since it makes
     * failures deterministic).
     */
    void crashHard();

    /**
     * Crash with an explicit survivor set: exactly the dirty lines in
     * @p survivors (strictly ascending) persist, everything else keeps
     * its durable value.
     * The crash-fuzz shrinker uses this to search for the smallest
     * surviving-line set that still breaks recovery.
     */
    void crashWithSurvivors(const std::vector<LineAddr> &survivors);

    /** Randomly evict (persist) up to @p n dirty lines, like a cache. */
    void evictRandomLines(Rng &rng, std::uint64_t n);

    /** @{ Media-fault model (see fault_plan.hh). */

    /**
     * Install the fault plan for subsequent loads and crashes. The
     * default (empty) plan injects nothing; installing a plan never
     * emits PM operations, so traced op counts are unaffected.
     */
    void setFaultPlan(const FaultPlan &plan) { faultPlan_ = plan; }

    /**
     * Resolve @p plan against the current dirty set and @p survivors
     * without crashing: up to plan.poisonCount dirty lines are
     * poisoned (lost outright) and each remaining survivor tears with
     * plan.tearProb. Deterministic in (plan.seed, dirty set,
     * @p survivors); feed the result to crashWithFaults() and fold it
     * into fuzz digests.
     */
    FaultResolution resolveFaults(const FaultPlan &plan,
                                  const std::vector<LineAddr> &survivors)
        const;

    /**
     * Crash with media faults: survivors persist as usual except that
     * lines named in @p faults.torn persist only their masked 8-byte
     * words, and lines in @p faults.poisoned are lost outright — the
     * durable image forgets them (zero-filled) and reads of the line
     * raise PmMediaError until it is scrubbed or re-programmed.
     * @p survivors must ascend strictly, as pickSurvivors() returns
     * them; @p faults then ascends with them (resolveFaults()).
     */
    void crashWithFaults(const std::vector<LineAddr> &survivors,
                         const FaultResolution &faults);

    /**
     * Repair one media-lost line: zero-fill both images (its content
     * is gone; the scrub's caller restores what redundancy allows)
     * and clear the poison so subsequent loads succeed.
     */
    void scrubLine(LineAddr line);

    /** Poison one line directly (unit-test hook). */
    void poisonLine(LineAddr line);

    /** True if reads of @p line currently raise PmMediaError. */
    bool linePoisoned(LineAddr line) const;

    /** All currently poisoned lines, ascending (scrub work list). */
    std::vector<LineAddr> poisonedLines() const;

    /** @} */

    /**
     * Fold the shards' persist counters and the pool's event counters
     * into a snapshot.
     */
    PoolStats stats() const;

    /**
     * Line-granular synchronization: every image access (applyStore,
     * applyCas64, applyLoad, persistLine) holds the shard lock(s) of
     * the lines it touches, so a concurrent 8-byte CAS commit and a
     * reader's load of the same slot never tear, and a fence draining
     * one thread's flush queue never races another thread's store to
     * a neighboring word in the same line. A shard's lock is one spin
     * word (test-and-test-and-set), taken inline: every access holds
     * it only for a copy of a few bytes, so the calls into a mutex
     * would cost more than the wait.
     *
     * Threads working on disjoint lines should not meet here. Each
     * shard fills its own cache lines, and a line picks its shard by
     * a multiplicative hash: PoolSlices bases are multiples of a
     * large power of two (2^20 lines for four clients of a 256 MB
     * pool), so `line % kLineShards` would put every client's
     * tx-state, log and root lines in the same shards. A shard also
     * counts the lines persisted under its lock, per DIMM; stats()
     * sums them, so a persist writes no pool-wide counter.
     */
    static constexpr unsigned kLineShardBits = 6;
    static constexpr std::size_t kLineShards = std::size_t(1)
                                               << kLineShardBits;

    /** The shard whose lock guards @p line. */
    static std::size_t
    shardOf(LineAddr line)
    {
        return static_cast<std::size_t>(
            (line * kGoldenGamma) >> (64 - kLineShardBits));
    }

  private:
    struct alignas(64) LineShard
    {
        /** 1 while a thread holds this shard. */
        std::atomic<std::uint32_t> locked{0};
        /**
         * Lines persisted under this shard's lock, per DIMM. Only the
         * lock holder bumps them (a plain load and store); atomic so
         * stats() reads them without the lock.
         */
        std::array<std::atomic<std::uint64_t>, kMaxDimms> persisted{};

        void
        lock()
        {
            if (locked.exchange(1, std::memory_order_acquire) != 0)
                lockContended();
        }

        void unlock() { locked.store(0, std::memory_order_release); }

        /** Spin with pause until the word reads free, then retry. */
        void lockContended();
    };

    /**
     * Lock the shards of lines [first, last] in ascending shard
     * order: the global lock order that keeps concurrent multi-line
     * accesses deadlock-free. A one-line access (nearly every one)
     * takes its one shard inline.
     */
    class ShardGuard
    {
      public:
        ShardGuard(const PmPool &pool, LineAddr first, LineAddr last)
            : pool_(pool), shards_(std::uint64_t(1) << shardOf(first))
        {
            if (first == last)
                pool_.lineShards_[shardOf(first)].lock();
            else
                lockRange(first, last);
        }

        ~ShardGuard()
        {
            if (std::has_single_bit(shards_))
                pool_.lineShards_[std::countr_zero(shards_)].unlock();
            else
                unlockAll();
        }

        ShardGuard(const ShardGuard &) = delete;
        ShardGuard &operator=(const ShardGuard &) = delete;

      private:
        void lockRange(LineAddr first, LineAddr last);
        void unlockAll();

        const PmPool &pool_;
        std::uint64_t shards_; //!< bit s set == shard s held
    };

    /** Counters of events off the persist path (faults, crashes). */
    struct EventCounters
    {
        std::atomic<std::uint64_t> linesEvicted{0};
        std::atomic<std::uint64_t> linesSurvivedCrash{0};
        std::atomic<std::uint64_t> crashes{0};
        std::atomic<std::uint64_t> linesTorn{0};
        std::atomic<std::uint64_t> linesPoisoned{0};
        std::atomic<std::uint64_t> poisonCleared{0};
        std::atomic<std::uint64_t> linesScrubbed{0};
        std::atomic<std::uint64_t> transientFaults{0};
        std::atomic<std::uint64_t> mediaErrors{0};
    };

    /** 4 KiB: the kernel's zero-fill granule, one written-map bit. */
    static constexpr unsigned kPageBits = 12;
    static constexpr unsigned kLinesPerPageBits = kPageBits - kCacheLineBits;

    void boundsCheck(Addr off, std::size_t n) const;
    void persistLineLocked(LineAddr line);
    /** Clear @p line's poison, if any; the caller holds its shard. */
    void clearPoison(LineAddr line);

    /** @{ Atomic views of one line's dirty and poison bytes. */
    std::atomic_ref<std::uint8_t>
    lineState(LineAddr line) const
    {
        return std::atomic_ref<std::uint8_t>(lineStates_.data()[line]);
    }

    std::atomic_ref<std::uint8_t>
    poison(LineAddr line) const
    {
        return std::atomic_ref<std::uint8_t>(poisoned_.data()[line]);
    }
    /** @} */

    /**
     * Mark the pages holding lines [first, last] written. A marked
     * page is only read here, so once a thread's pages are marked its
     * stores write no cache line of the map.
     */
    void markWritten(LineAddr first, LineAddr last);

    /** Call @p fn(page) for every written page, ascending. */
    template <typename Fn> void forEachWrittenPage(Fn &&fn) const;

    /** Call @p fn(line) for every line of a written page, ascending. */
    template <typename Fn> void forEachWrittenLine(Fn &&fn) const;

    std::size_t size_;
    std::size_t lines_;
    LazyRegion arch_;
    LazyRegion durable_;
    /** One byte per line, 1 == dirty; written through lineState(). */
    LazyRegion lineStates_;
    /** One byte per line, 1 == poisoned: loads raise PmMediaError. */
    LazyRegion poisoned_;
    /** One bit per 4 KiB page, 64-bit words; set, never cleared. */
    LazyRegion written_;
    mutable std::array<LineShard, kLineShards> lineShards_;
    FaultPlan faultPlan_;
    /** Global load index driving transient-fault injection. */
    mutable std::atomic<std::uint64_t> loadIndex_{0};
    /** Mutable: applyLoad() is const but counts faults it injects. */
    mutable EventCounters events_;
};

} // namespace whisper::pm

#endif // WHISPER_PM_PM_POOL_HH
