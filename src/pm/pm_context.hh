/**
 * @file
 * Per-thread instrumented access path to a PmPool.
 *
 * PmContext is the C++ equivalent of the paper's PM_* macros
 * (their Figure 2): every store, non-temporal store, flush and fence
 * goes through here, is applied to the pool with correct persistency
 * semantics, advances the global logical clock, and is appended to the
 * thread's trace buffer. Durable-transaction boundaries and volatile
 * (DRAM) accesses are traced through the same object so that one trace
 * carries everything the analyses and the timing simulator need.
 *
 * Persistency semantics implemented (x86-TSO):
 *  - a cacheable store only dirties the line; it becomes durable when
 *    some fence drains a flush of that line (or the "cache" evicts it
 *    at crash time);
 *  - flush() (clwb) enqueues lines on this thread's pending set;
 *  - ntStore() bypasses the cache: the data sits in a write-combining
 *    buffer until the next fence;
 *  - fence() (sfence) drains this thread's pending flushes and WC
 *    buffer into the durable image.
 */

#ifndef WHISPER_PM_PM_CONTEXT_HH
#define WHISPER_PM_PM_CONTEXT_HH

#include <atomic>
#include <cstring>
#include <string>
#include <unordered_set>
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
 * One thread's view of the persistent memory system.
 */
class PmContext
{
  public:
    /**
     * @param elision the txlib::ElisionPolicy mask the logging layers
     *        consult on this context (txlib/elision.hh); fixed for
     *        the context's life, so concurrent runs never share it
     */
    PmContext(PmPool &pool, LogicalClock &clock, ThreadId tid,
              trace::TraceBuffer *tb = nullptr,
              std::uint32_t elision = 0);

    PmPool &pool() { return pool_; }
    ThreadId tid() const { return tid_; }
    trace::TraceBuffer *traceBuffer() { return tb_; }
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

    /** PM_STRCPY: store a NUL-terminated string. */
    void strcpyPm(Addr off, const char *s,
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
    Tick now() const { return clock_.now(); }

    /**
     * Ticks this context has contributed to the global clock. Unlike
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

    CrashPlan *crashPlan() { return plan_; }

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
    LogicalClock &clock_;
    ThreadId tid_;
    trace::TraceBuffer *tb_;
    const std::uint32_t elision_;
    CrashPlan *plan_ = nullptr;
    FenceObserver *fenceObs_ = nullptr;

    Tick localTicks_ = 0;
    std::uint64_t droppedPmOps_ = 0;
    std::uint8_t origin_ = 0;
    std::vector<LineAddr> pendingFlush_;
    /** Mirror of pendingFlush_ for O(1) duplicate suppression. */
    std::unordered_set<LineAddr> pendingFlushSet_;
    /** WC buffer contents: byte ranges written by NT stores. */
    std::vector<std::pair<Addr, std::uint32_t>> pendingNt_;
    TxId nextTx_;
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
