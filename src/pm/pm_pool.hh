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
 * Both images and the per-line state and poison bytes live in
 * kernel-zeroed anonymous mappings (LazyRegion), so a pool costs time
 * and memory in proportion to the 4 KiB pages written, not to its
 * size. A written-page map (one bit per 4 KiB of the pool, set on the
 * first write of either image or a line's dirty or poison flag in
 * that page and never cleared) bounds every whole-pool walk: the
 * dirty and poisoned line lists, the crash's survivor draw and its
 * durable-to-architectural reload visit only marked pages, in
 * ascending line order.
 *
 * A line's state byte is also its lock, so the 64 lock bytes in one
 * cache line cover one 4 KiB page of the pool, and threads on
 * disjoint pages share no lock line. Persist counts live in
 * per-context blocks (PersistCounts) that the pool folds when stats()
 * is read.
 */

#ifndef WHISPER_PM_PM_POOL_HH
#define WHISPER_PM_PM_POOL_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/dimm.hh"
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
 *
 * Line-granular synchronization: every image access (applyStore,
 * applyCas64, applyLoad, persistLine) holds the locks of the lines it
 * touches, so a concurrent 8-byte CAS commit and a reader's load of
 * the same slot never tear, and a fence draining one thread's flush
 * queue never races another thread's store to a neighboring word in
 * the same line. A line's lock is a bit of its own state byte, the
 * byte that holds its dirty flag: a one-line access sets it with one
 * `fetch_or` (test-and-test-and-set when contended) and releases it
 * with one store of the line's final state. Every access holds it
 * only for a copy of a few bytes, so a mutex would cost more than
 * the wait. A wider access locks its lines in ascending line order,
 * the one global lock order.
 *
 * Threads on disjoint lines should not meet here: the state bytes of
 * one 4 KiB page fill one cache line, so threads on disjoint pages
 * share no lock line. Nor do they share a counter: each PmContext
 * counts its persists in its own PersistCounts block.
 */
class alignas(64) PmPool
{
  public:
    /**
     * The pool's DIMM geometry: the simulator's four-DIMM platform at
     * 256 B interleaving. It only affects per-DIMM statistics, never
     * data.
     */
    static constexpr DimmConfig kDimms{4, 4};

    /**
     * Lines persisted by one writer, per DIMM. A PmContext owns one,
     * in a cache line only its thread writes, and is its only writer,
     * so a count is a relaxed load and store, not a locked add; the
     * pool links the block in (registerCounts()) and sums every linked
     * block when stats() is read.
     */
    struct PersistCounts
    {
        std::array<std::atomic<std::uint64_t>, kDimms.count> dimm{};
        /** Next registered block: the pool's link, under its mutex. */
        PersistCounts *next = nullptr;

        /** Count one line on DIMM @p d; the owner thread only. */
        void
        bump(unsigned d)
        {
            dimm[d].store(dimm[d].load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
        }
    };

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

    /**
     * Copy one line arch -> durable and mark it clean. The caller
     * owns @p counts, if given; otherwise the line is counted in the
     * pool's own block (by a locked add: any thread may call this).
     */
    void persistLine(LineAddr line, PersistCounts *counts = nullptr);

    /** Persist every line overlapping [off, off+n), as persistLine(). */
    void persistRange(Addr off, std::size_t n,
                      PersistCounts *counts = nullptr);

    /** @} */

    /**
     * @{ Fold @p counts into stats() from now on. retireCounts() adds
     * its final values to a retired total and forgets the block, which
     * its owner may then free.
     */
    void registerCounts(PersistCounts &counts);
    void retireCounts(PersistCounts &counts);
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
     * Fold the registered, retired and pool-side persist counts and
     * the pool's event counters into a snapshot.
     */
    PoolStats stats() const;

  private:
    /** @{ Line-state bits: the line differs from its durable copy. */
    static constexpr std::uint8_t kDirty = 1;
    /** Set while a thread holds the line. */
    static constexpr std::uint8_t kLock = 0x80;
    /** @} */

    /**
     * Locks lines [first, last] in ascending line order; the
     * destructor releases each with one store of its final state:
     * the state it had, or the one given to settle().
     */
    class LineGuard
    {
      public:
        LineGuard(const PmPool &pool, LineAddr first, LineAddr last)
            : pool_(pool), first_(first), last_(last),
              state_(pool.lockLine(first))
        {
            for (LineAddr line = first + 1; line <= last; line++)
                pool.lockLine(line);
        }

        ~LineGuard()
        {
            for (LineAddr line = first_ + 1; line <= last_; line++) {
                pool_.unlockLine(line,
                                 keep_ ? pool_.heldState(line) : state_);
            }
            pool_.unlockLine(first_, state_);
        }

        /** Release every line in state @p state. */
        void
        settle(std::uint8_t state)
        {
            state_ = state;
            keep_ = false;
        }

        LineGuard(const LineGuard &) = delete;
        LineGuard &operator=(const LineGuard &) = delete;

      private:
        const PmPool &pool_;
        const LineAddr first_;
        const LineAddr last_;
        std::uint8_t state_; //!< first line's, until settle()
        bool keep_ = true;
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
    /** Clear @p line's poison, if any; the caller holds its lock. */
    void clearPoison(LineAddr line);

    /** @{ Atomic views of one line's state and poison bytes. */
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

    /** Lock @p line; returns its state (lock bit clear). */
    std::uint8_t
    lockLine(LineAddr line) const
    {
        const std::uint8_t old =
            lineState(line).fetch_or(kLock, std::memory_order_acquire);
        return old & kLock ? lockLineContended(line) : old;
    }

    /** Spin with pause until @p line reads unlocked, then retry. */
    std::uint8_t lockLineContended(LineAddr line) const;

    /** State of @p line, which the caller holds, without the lock. */
    std::uint8_t
    heldState(LineAddr line) const
    {
        return lineState(line).load(std::memory_order_relaxed) & ~kLock;
    }

    /** Release @p line, leaving it in @p state. */
    void
    unlockLine(LineAddr line, std::uint8_t state) const
    {
        lineState(line).store(state, std::memory_order_release);
    }

    /** True if @p line is dirty; reads without its lock. */
    bool
    dirtyFlag(LineAddr line) const
    {
        return lineState(line).load(std::memory_order_relaxed) & kDirty;
    }

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
    /** One byte per line: kDirty and kLock, through lineState(). */
    LazyRegion lineStates_;
    /** One byte per line, 1 == poisoned: loads raise PmMediaError. */
    LazyRegion poisoned_;
    /** One bit per 4 KiB page, 64-bit words; set, never cleared. */
    LazyRegion written_;
    FaultPlan faultPlan_;
    /** Global load index driving transient-fault injection. */
    mutable std::atomic<std::uint64_t> loadIndex_{0};
    /** Mutable: applyLoad() is const but counts faults it injects. */
    mutable EventCounters events_;
    /** Direct persistLine() calls, crash survivals and evictions. */
    PersistCounts poolPersisted_;
    /** Guards liveCounts_ and retiredPersisted_. */
    mutable std::mutex countsMutex_;
    /** Registered blocks (one per live PmContext), linked by next. */
    PersistCounts *liveCounts_ = nullptr;
    /** Final counts of retired blocks, per DIMM. */
    std::array<std::uint64_t, kDimms.count> retiredPersisted_{};
    /**
     * Unused: pads sizeof(PmPool) to 8448 bytes on x86-64 glibc, its
     * size with the line shards the line locks replaced. A one-thread
     * trace records each DRAM buffer at its in-page heap offset, which
     * follows the size of every earlier allocation (ROADMAP item 12),
     * and a Runtime allocates its pool first; the pad keeps recorded
     * traces byte-identical until those offsets stop mattering.
     */
    std::uint8_t heapPad_[8064];
};

} // namespace whisper::pm

#endif // WHISPER_PM_PM_POOL_HH
