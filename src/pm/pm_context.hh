/**
 * @file
 * Per-thread instrumented access path to a PmPool.
 *
 * PmContext is the C++ equivalent of the paper's PM_* macros
 * (their Figure 2): every store, non-temporal store, flush and fence
 * goes through here, is applied to the pool with correct persistency
 * semantics, advances the context's logical clock (the Runtime's
 * shared one, or the context's own after Runtime::splitClocks()), and
 * is appended to the thread's trace buffer. Durable-transaction
 * boundaries and volatile (DRAM) accesses are traced through the same
 * object so that one trace carries everything the analyses and the
 * timing simulator need.
 *
 * Persistency semantics implemented (x86-TSO):
 *  - a cacheable store only dirties the line; it becomes durable when
 *    some fence drains a flush of that line (or the "cache" evicts it
 *    at crash time);
 *  - flush() (clwb) enqueues lines on this thread's pending list;
 *  - ntStore() bypasses the cache: the data sits in a write-combining
 *    buffer until the next fence;
 *  - fence() (sfence) drains this thread's pending flushes and WC
 *    buffer into the durable image.
 */

#ifndef WHISPER_PM_PM_CONTEXT_HH
#define WHISPER_PM_PM_CONTEXT_HH

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logical_clock.hh"
#include "pm/poff.hh"
#include "pm/pm_pool.hh"
#include "pm/sched_gate.hh"
#include "trace/trace_buffer.hh"

namespace whisper::pm
{

using trace::DataClass;
using trace::EventKind;
using trace::FenceKind;

/**
 * Crash-point schedule shared by every PmContext of a runtime.
 *
 * The crash fuzzer counts the persistent-memory operations (store,
 * NT store, flush, fence) a run issues and injects a simulated power
 * cut immediately *before* the operation whose global index equals
 * @ref crashAt: the context throws CrashPointReached and ignores all
 * further persistent mutations, exactly as if the machine lost power
 * at that instant. With crashAt left at its default the plan only
 * counts (the fuzzer's profiling pass).
 *
 * Deterministic op indices require a deterministic op order. Fuzz
 * cases either run their workload single-threaded, or attach a
 * SchedGate that pins the interleaving of N racing threads to a
 * seeded schedule (every PM op runs inside a gate turn).
 */
struct CrashPlan
{
    /** Index of the PM op the power cut precedes (default: never). */
    std::uint64_t crashAt = ~std::uint64_t(0);
    /** Global count of PM ops attempted so far. */
    std::atomic<std::uint64_t> opsSeen{0};
    /** Set once the crash point was hit; poisons later PM mutations. */
    std::atomic<bool> fired{false};
    /**
     * Deterministic multi-thread schedule (owned by the Runtime);
     * nullptr when the run is single-threaded. Opened on fire so
     * racing threads drain without further serialization.
     */
    SchedGate *gate = nullptr;
};

/**
 * Thrown by PmContext when an armed crash point is reached. The fuzz
 * harness catches it at the run boundary and resolves the crash; it
 * unwinds through application code the way a power cut "unwinds" a
 * process — destructors must not touch persistent state (PmContext
 * drops such writes while the plan is fired).
 */
struct CrashPointReached
{
    std::uint64_t opIndex = 0; //!< index of the op that was cut short
};

/**
 * Observer notified of every fence this context issues, with the
 * admitted/dropped verdict the caller saw. The durable-linearizability
 * recorder uses it to learn which ops a durability fence covered; the
 * pointer defaults to null so the hook costs one predicted-false
 * branch per fence when unused. The verdict is decided inside the
 * gated op, so notifications are deterministic under seeded schedules.
 */
struct FenceObserver
{
    virtual ~FenceObserver() = default;
    virtual void onFence(ThreadId tid, FenceKind kind, bool admitted) = 0;
};

/**
 * Stable trace addresses for volatile (DRAM) accesses. Each host page
 * a traced access touches gets the next page number in first-touch
 * order; the access is traced at that page number, with its offset
 * within the page kept. Which page a buffer gets then depends on the
 * run, not on where ASLR or earlier allocations put it; the kept
 * offset of a heap buffer can still vary with the process's malloc
 * history (a vBurst does not use it). One table serves every context
 * of a Runtime, so a buffer two threads share keeps one address. A
 * number never changes once given, so contexts cache the numbers
 * (PmContext::dramAddr) and take the lock only on a miss.
 */
class DramPages
{
  public:
    static constexpr unsigned kPageBits = 12;
    static constexpr Addr kPageMask = (Addr(1) << kPageBits) - 1;

    /** The page number of host page @p host_page (address >> 12). */
    std::uint64_t
    number(std::uintptr_t host_page)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return pages_.try_emplace(host_page, pages_.size()).first->second;
    }

  private:
    std::mutex mutex_;
    std::unordered_map<std::uintptr_t, std::uint64_t> pages_;
};

/**
 * One thread's view of the persistent memory system.
 */
class PmContext
{
  public:
    /**
     * @param clock the clock this context advances until
     *        splitClock(); a Runtime's contexts share one
     * @param elision the txlib::ElisionPolicy mask the logging layers
     *        consult on this context (txlib/elision.hh); fixed for
     *        the context's life, so concurrent runs never share it
     * @param dram the DRAM page table volatile accesses are traced
     *        through; the Runtime shares one among its contexts, and
     *        a context built alone gets its own
     */
    PmContext(PmPool &pool, LogicalClock &clock, ThreadId tid,
              trace::TraceBuffer *tb = nullptr,
              std::uint32_t elision = 0,
              std::shared_ptr<DramPages> dram =
                  std::make_shared<DramPages>());

    /** Folds this context's persist counts into the pool's. */
    ~PmContext();

    PmContext(const PmContext &) = delete;
    PmContext &operator=(const PmContext &) = delete;

    PmPool &pool() { return pool_; }
    ThreadId tid() const { return tid_; }
    std::uint32_t elisionPolicy() const { return elision_; }

    /** @{ \name Persistent stores */

    /** Cacheable store of @p n bytes at pool offset @p off. */
    void store(Addr off, const void *src, std::size_t n,
               DataClass cls = DataClass::User);

    /** Cacheable store of a value into a field living in the pool. */
    template <typename T>
    void
    storeField(T &dst_in_pool, const T &value,
               DataClass cls = DataClass::User)
    {
        store(pool_.offsetOf(&dst_in_pool), &value, sizeof(T), cls);
    }

    /**
     * Atomic 8-byte compare-and-swap commit (the MOD structures'
     * bucket/root-slot install). Counts as one PM store against the
     * crash plan and dirties the line like a store. Returns false iff
     * the current value was not @p expected; after a fired crash
     * plan the op is dropped and reports success (the machine is off
     * — unwinding code must not act on a fake CAS loss).
     */
    bool casStore(Addr off, std::uint64_t expected,
                  std::uint64_t desired,
                  DataClass cls = DataClass::User);

    /** Non-temporal store (paper: PM_MOVNTI / memcpy_nt). */
    void ntStore(Addr off, const void *src, std::size_t n,
                 DataClass cls = DataClass::User);

    /** @} */
    /** @{ \name Flush and fence */

    /** clwb every line overlapping [off, off+n). */
    void flush(Addr off, std::size_t n);

    /**
     * sfence; drains this thread's flushes and WC buffer.
     *
     * @return true when the fence retired (was admitted against the
     *   crash plan, or no plan is attached); false when a fired plan
     *   dropped it. Callers batching commit state must key promotion
     *   off this value — it is decided inside the gated op, so it is
     *   deterministic under seeded schedules, unlike a later
     *   crashInjected() read which races with another thread firing
     *   the crash.
     */
    bool fence(FenceKind kind = FenceKind::Ordering);

    /** Convenience: flush + durability fence (native-style persist). */
    void persist(Addr off, std::size_t n);

    /** @} */
    /** @{ \name Loads */

    void load(Addr off, void *dst, std::size_t n);

    template <typename T>
    T
    loadField(const T &src_in_pool)
    {
        T out;
        load(pool_.offsetOf(&src_in_pool), &out, sizeof(T));
        return out;
    }

    /** @} */
    /** @{ \name Transactions and volatile instrumentation */

    /** Mark a durable-transaction begin; returns its id. */
    TxId txBegin();

    /** Mark commit of @p tx. Does not itself fence. */
    void txEnd(TxId tx);

    /** Mark abort of @p tx. */
    void txAbort(TxId tx);

    /**
     * This context's 64-byte DRAM scratch line: the address apps give
     * vLoad/vStore for a modeled request or result buffer. It is
     * heap-owned with the context, so its traced address repeats from
     * process to process; a stack local's in-page offset moves with
     * ASLR, and with it a recorded trace's bytes.
     */
    void *scratch() { return scratch_; }

    /** Record a volatile load of @p n bytes at host pointer @p p. */
    void vLoad(const void *p, std::size_t n);

    /** Record a volatile store of @p n bytes at host pointer @p p. */
    void vStore(const void *p, std::size_t n);

    /**
     * Model a burst of volatile work: @p loads loads and @p stores
     * stores over the region at @p base spanning @p span bytes.
     * When the trace records volatile events, individual 8-byte
     * accesses with a scrambled stride are emitted (so the timing
     * simulator sees realistic DRAM traffic); otherwise only the
     * counters advance — either way the logical clock moves by the
     * full cost. PM-aware applications spend >96% of their accesses
     * in DRAM (paper Figure 6); this is how our reimplementations
     * model that work without megabytes of hand-written filler code.
     */
    void vBurst(const void *base, std::size_t span, unsigned loads,
                unsigned stores);

    /** Model @p ns nanoseconds of pure computation. */
    void compute(Tick ns);

    /** Current logical time (does not advance the clock). */
    Tick now() const { return clock_->now(); }

    /**
     * Move this context onto its own clock, started at the current
     * time of the clock it shares. From then on its events, bursts and
     * compute advance only its own clock, in a cache line no other
     * thread writes, and now() reads it. One-way; a second call does
     * nothing. Only for partitioned clients (Runtime::splitClocks()).
     */
    void splitClock();

    /**
     * Ticks this context has contributed to its clock. Unlike
     * now(), deltas of this counter are interleaving-independent: they
     * sum only the costs of *this thread's* operations, so per-op
     * latencies derived from them are deterministic for any schedule
     * of the other threads (the workload driver's latency source).
     */
    Tick localTicks() const { return localTicks_; }

    /** @} */

    /** Pending (unfenced) flushed lines — exposed for tests. */
    const std::vector<LineAddr> &pendingFlushes() const
    {
        return pendingFlush_;
    }

    /**
     * Origin tag stamped on every event this context emits until the
     * next setOrigin(). The txlib layers scope their log-management
     * code with OriginScope so the optimizer can attribute redundant
     * flushes/fences to a named site; application code leaves the
     * default (Origin::None).
     */
    void
    setOrigin(trace::Origin origin)
    {
        origin_ = static_cast<std::uint8_t>(origin);
    }

    trace::Origin
    origin() const
    {
        return static_cast<trace::Origin>(origin_);
    }

    /** Drop pending state without persisting (used after crash()). */
    void resetPendingState();

    /** @{ \name Crash-point injection (crash fuzzer) */

    /** Attach a fence observer (nullptr detaches). */
    void setFenceObserver(FenceObserver *obs) { fenceObs_ = obs; }

    /** Attach @p plan (nullptr detaches; no overhead when detached). */
    void setCrashPlan(CrashPlan *plan) { plan_ = plan; }

    /** The attached plan's schedule gate, or nullptr when ungated. */
    SchedGate *
    schedGate()
    {
        return plan_ ? plan_->gate : nullptr;
    }

    /**
     * True once the attached plan fired: the simulated machine is off,
     * so persistent mutations are dropped and transaction objects
     * unwinding through the crash must not complain about (or act on)
     * their un-finished state.
     */
    bool
    crashInjected() const
    {
        return plan_ && plan_->fired.load(std::memory_order_relaxed);
    }

    /**
     * PM ops this context dropped because the plan had fired. Unlike
     * crashInjected(), a delta of this counter around an operation is
     * deterministic under a seeded schedule: it only counts *this
     * thread's* drops, which the gate ordered. The lincheck workload
     * uses it to stop recording a thread the moment its effects stop
     * reaching the pool.
     */
    std::uint64_t droppedPmOps() const { return droppedPmOps_; }

    /** @} */

  private:
    void emit(EventKind kind, Addr addr, std::uint32_t size,
              DataClass cls, std::uint8_t aux, Tick cost);

    /**
     * Charge @p cost to this context and its clock; returns the new
     * time. A split clock has one writer, this context, so it steps
     * without a locked instruction.
     */
    Tick
    tick(Tick cost)
    {
        localTicks_ += cost;
        return clock_ == &ownClock_ ? ownClock_.advanceOwned(cost)
                                    : clock_->advance(cost);
    }

    /**
     * Trace address of volatile host address @p host: its DramPages
     * page number with the offset within the page kept.
     */
    Addr dramAddr(std::uintptr_t host);

    /**
     * Address of a vLoad/vStore event at @p p: dramAddr() when the
     * trace stores DRAM events, else 0, so no other run pays the
     * lookup.
     */
    Addr tracedDram(const void *p);

    /**
     * Count one PM op against the crash plan; throws CrashPointReached
     * when the armed crash point is hit. Returns false when the op
     * must be dropped (plan already fired).
     */
    bool
    admitPmOp()
    {
        if (!plan_)
            return true;
        if (plan_->fired.load(std::memory_order_relaxed)) {
            droppedPmOps_++;
            return false;
        }
        const std::uint64_t idx =
            plan_->opsSeen.fetch_add(1, std::memory_order_relaxed);
        if (idx >= plan_->crashAt) {
            plan_->fired.store(true, std::memory_order_relaxed);
            if (plan_->gate)
                plan_->gate->open();
            throw CrashPointReached{idx};
        }
        return true;
    }

    PmPool &pool_;
    /** The clock this context advances: shared, or &ownClock_. */
    LogicalClock *clock_;
    ThreadId tid_;
    trace::TraceBuffer *tb_;
    const std::uint32_t elision_;
    const std::shared_ptr<DramPages> dram_;
    CrashPlan *plan_ = nullptr;
    FenceObserver *fenceObs_ = nullptr;

    Tick localTicks_ = 0;
    std::uint64_t droppedPmOps_ = 0;
    std::uint8_t origin_ = 0;
    /**
     * Lines flushed since the last fence, each once, in flush order.
     * A fence persists them in that order. A flat list, because an
     * epoch is usually one or a few lines: flush() finds a repeat by
     * scanning it, except for a line above pendingTop_.
     */
    std::vector<LineAddr> pendingFlush_;
    /** Largest line in pendingFlush_ (meaningless while it is empty). */
    LineAddr pendingTop_ = 0;
    /** WC buffer contents: byte ranges written by NT stores. */
    std::vector<std::pair<Addr, std::uint32_t>> pendingNt_;
    TxId nextTx_;

    /**
     * Direct-mapped cache of dram_'s page numbers, keyed by host page:
     * a 64 KiB burst's pages land in distinct slots.
     */
    struct DramSlot
    {
        std::uintptr_t hostPage = ~std::uintptr_t(0);
        std::uint64_t number = 0;
    };
    std::array<DramSlot, 16> dramCache_;

    /** This context's own clock once split (splitClock()). */
    alignas(64) LogicalClock ownClock_;

    /**
     * Lines this context's fences persisted, per DIMM, in the clock's
     * cache line: only this context's thread writes either (the pool
     * reads the counts for stats()). Keeping them in that line's
     * padding keeps sizeof(PmContext), and so the heap offsets a
     * one-thread trace records (PmPool::heapPad_).
     */
    PmPool::PersistCounts persisted_;

    alignas(64) unsigned char scratch_[64] = {};
};

/**
 * RAII origin tag: stamps every event the context emits inside the
 * scope with @p origin, restoring the previous tag on exit (scopes
 * nest — recovery code calling into append paths keeps its own tag
 * only where it emits directly).
 */
class OriginScope
{
  public:
    OriginScope(PmContext &ctx, trace::Origin origin)
        : ctx_(ctx), prev_(ctx.origin())
    {
        ctx_.setOrigin(origin);
    }

    ~OriginScope() { ctx_.setOrigin(prev_); }

    OriginScope(const OriginScope &) = delete;
    OriginScope &operator=(const OriginScope &) = delete;

  private:
    PmContext &ctx_;
    trace::Origin prev_;
};

} // namespace whisper::pm

#endif // WHISPER_PM_PM_CONTEXT_HH
