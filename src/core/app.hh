/**
 * @file
 * WHISPER application interface and lookup by name.
 *
 * Each of the fourteen suite applications (and each test fixture)
 * implements WhisperApp. The harness (harness.hh) drives the common life cycle:
 *
 *   setup(runtime)            — format pool structures, load data
 *   [traces cleared]          — analysis covers steady state only
 *   run(ctx, tid) x threads   — the measured workload
 *   verify(runtime)           — application-level invariants
 *
 * and, for crash testing:
 *
 *   crash -> recover(runtime) -> verifyRecovered(runtime)
 */

#ifndef WHISPER_CORE_APP_HH
#define WHISPER_CORE_APP_HH

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.hh"
#include "common/logging.hh"
#include "core/runtime.hh"
#include "core/verify_report.hh"
#include "txlib/elision.hh"

namespace whisper::core
{

/** Knobs common to every application. */
struct AppConfig
{
    unsigned threads = 4;          //!< worker/client threads
    std::uint64_t opsPerThread = 10000;
    std::uint64_t seed = 42;
    std::size_t poolBytes = 256 << 20;
    bool recordVolatile = false;
    /** txlib elision bits every context of the run's Runtime carries. */
    txlib::ElisionPolicy elision = txlib::kElideNone;

    /**
     * Scale every op count by @p f (benches use small smoke runs).
     * Threads scale down with @p f too (never up) and are clamped to
     * the hardware concurrency, so smoke sweeps on small CI machines
     * never oversubscribe the cores they have.
     */
    AppConfig
    scaled(double f) const
    {
        AppConfig c = *this;
        c.opsPerThread =
            std::max<std::uint64_t>(1,
                static_cast<std::uint64_t>(
                    static_cast<double>(opsPerThread) * f));
        const double tf = std::min(f, 1.0);
        unsigned t = static_cast<unsigned>(
            static_cast<double>(threads) * tf + 0.5);
        const unsigned hw = std::thread::hardware_concurrency();
        if (hw > 0)
            t = std::min(t, hw);
        c.threads = std::max(1u, t);
        return c;
    }
};

/**
 * Paper access-layer taxonomy (Table 1 "Access Layer" column), plus
 * the post-paper layers the suite grows to quantify the paper's
 * Consequence 3/8 fixes: MOD (minimally ordered durable
 * datastructures) and Hybrid (DRAM index over PM data segments,
 * recovery by scan — src/halo/).
 */
enum class AccessLayer
{
    Native,
    LibNvml,
    LibMnemosyne,
    Filesystem,
    LibMod,
    Hybrid,
};

const char *accessLayerName(AccessLayer layer);

/**
 * Key-space partition convention shared by the workload driver
 * (src/workload/) and the per-app workload adapters.
 *
 * Determinism contract: at a fixed seed and thread count, a workload
 * run must produce bit-identical latency digests regardless of how
 * the OS interleaves the threads. Shared structures cannot give that
 * (chain lengths and allocator state would depend on insert order),
 * so the driver partitions the key space and every adapter backs each
 * thread's slice with *private* structure instances over disjoint
 * pool regions. This mirrors YCSB's one-client-per-thread model: a
 * thread only ever touches keys it owns.
 *
 *  - loaded keys:   thread t owns [lo(t), lo(t) + perThread())
 *  - inserted keys: the j-th key thread t inserts during the run is
 *    insertKey(t, j), disjoint from every loaded key and from every
 *    other thread's inserts.
 *
 * localIndex() folds any owned key (loaded or inserted) back to a
 * dense per-thread index in [0, perThread() + insertsPerThread), which
 * adapters use to address fixed-size per-thread slots.
 */
struct WorkloadKeymap
{
    std::uint64_t keys = 0;        //!< loaded keys, total
    unsigned threads = 1;          //!< worker threads (= partitions)
    std::uint64_t insertsPerThread = 0; //!< upper bound on run inserts

    std::uint64_t perThread() const { return keys / threads; }
    std::uint64_t lo(ThreadId tid) const
    {
        return static_cast<std::uint64_t>(tid) * perThread();
    }
    /** Globally unique id of thread @p tid's @p j-th inserted key. */
    std::uint64_t insertKey(ThreadId tid, std::uint64_t j) const
    {
        return keys + static_cast<std::uint64_t>(tid) *
                          insertsPerThread + j;
    }
    /** Dense per-thread slot index of an owned key. */
    std::uint64_t localIndex(ThreadId tid, std::uint64_t key) const
    {
        if (key < keys)
            return key - lo(tid);
        return perThread() +
               (key - keys -
                static_cast<std::uint64_t>(tid) * insertsPerThread);
    }
    /** Max slots any one thread can ever address. */
    std::uint64_t slotsPerThread() const
    {
        return perThread() + insertsPerThread;
    }
    /**
     * The @p j-th key of a scan starting at @p start_key: consecutive
     * key ids wrapping inside the thread's *loaded* slice (inserted
     * keys fold back onto it), so every adapter iterates ranges the
     * same way and scans never leave the partition.
     */
    std::uint64_t scanKey(ThreadId tid, std::uint64_t start_key,
                          std::uint64_t j) const
    {
        return lo(tid) +
               (localIndex(tid, start_key) + j) % perThread();
    }
};

/**
 * Disjoint per-thread pool slices for the workload adapters' private
 * instances (see WorkloadKeymap): thread t's instance owns
 * [base(t), base(t) + bytes). Panics, naming @p app, when a slice
 * would not exceed the @p min_bytes the instance needs.
 */
struct PoolSlices
{
    PoolSlices(std::size_t pool_bytes, unsigned threads,
               std::size_t min_bytes, const char *app)
        : bytes(lineBase(pool_bytes / threads))
    {
        panic_if(bytes <= min_bytes,
                 "%s workload: pool too small for %u instances", app,
                 threads);
    }

    Addr base(unsigned t) const { return static_cast<Addr>(t) * bytes; }

    std::size_t bytes; //!< line-aligned size of every slice
};

/**
 * One WHISPER application.
 */
class WhisperApp
{
  public:
    explicit WhisperApp(AppConfig config) : config_(config) {}
    virtual ~WhisperApp() = default;

    virtual std::string name() const = 0;
    virtual AccessLayer layer() const = 0;

    /** Format persistent structures and load initial data. */
    virtual void setup(Runtime &rt) = 0;

    /** Per-thread measured workload body. */
    virtual void run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) = 0;

    /** Invariants after a clean run. */
    virtual VerifyReport verify(Runtime &rt) = 0;

    /** Re-mount and recover after a crash. */
    virtual void recover(Runtime &rt) = 0;

    /**
     * Allocator stats of the buddy heap the last recover() walked, so
     * its caller can report the headers it reformatted
     * (alloc::warnReformatted). Default: the app has no such heap.
     */
    virtual alloc::AllocStats recoveredHeapStats() const { return {}; }

    /**
     * Media-fault scrub, run after a crash and BEFORE recover(): every
     * poisoned line is first zero-filled and un-poisoned at the device
     * (so no later read can take a PmMediaError), then the layer's
     * scrubLayer() hook repairs what its redundancy allows — rewrite a
     * CRC-protected root from attach parameters, drop a torn log tail,
     * truncate a chain at the first corrupt node — and degrades the
     * rest. Lines no layer claims are reported as "pm-line-lost"
     * (content irrecoverably gone, loss named). Returns the scrub
     * report; Degraded entries license matching verifyRecovered()
     * losses, Violations mean the scrub itself found corruption it
     * cannot even name.
     */
    VerifyReport
    scrubRecovered(Runtime &rt)
    {
        VerifyReport rep = report();
        std::vector<LineAddr> lines = rt.pool().poisonedLines();
        for (const LineAddr line : lines)
            rt.pool().scrubLine(line);
        if (!lines.empty())
            scrubLayer(rt, lines, rep);
        if (!lines.empty()) {
            rep.degrade("pm-line-lost",
                        std::to_string(lines.size()) +
                            " poisoned line(s) outside any scrubbed "
                            "structure; content lost",
                        lines);
        }
        return rep;
    }

    /**
     * Invariants that must hold after crash + recover: structural
     * consistency, no torn committed data. (Uncommitted work may be
     * absent — that is the contract.)
     */
    virtual VerifyReport verifyRecovered(Runtime &rt) = 0;

    /**
     * Access-layer recovery invariants, checked by the crash fuzzer
     * after recover() in addition to verifyRecovered(): redo logs
     * fully replayed and retired (Mnemosyne), undo logs rolled back
     * and descriptors NONE (NVML), journal FREE and fsck-clean (PMFS),
     * descriptor/status protocols settled (native), garbage lanes
     * quiescent and reachable nodes allocated (MOD). Default: no
     * layer-specific state to check.
     */
    virtual VerifyReport
    checkRecoveryInvariants(Runtime &rt)
    {
        (void)rt;
        return report();
    }

    /** @{ \name Generated-workload surface (src/workload/ driver)
     *
     * Every suite application exposes per-op get/put/rmw/scan entry
     * points so the YCSB-style driver can run generated key-value
     * mixes against them (the `faulty` fixture does not; the defaults
     * below stop a driver with a fatal() naming it). The driver calls
     * workloadSetup() once (single-threaded) with the key partition
     * plan; the adapter's setupPartitions() builds *per-thread*
     * structure instances over disjoint pool regions and preloads each
     * thread's slice (see WorkloadKeymap for why sharing would break
     * determinism), then every context moves onto its own clock. The
     * per-op calls then run concurrently, thread @p tid only ever
     * receiving keys it owns. workloadThreadDone() is the per-thread
     * epilogue (e.g. MOD's threadExit); workloadCheck() validates
     * structural invariants after the run. The instance recipe (one
     * instance per thread at PoolSlices::base(t), preloaded, and the
     * check of every shard) is written once, for every suite app,
     * in apps::InstanceApp (src/apps/instance_app.hh).
     */

    /**
     * Build per-thread structures and preload every partition
     * (setupPartitions()), then split the runtime's clocks
     * (Runtime::splitClocks()): from here on each client stamps its
     * events from its own clock.
     */
    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map)
    {
        setupPartitions(rt, map);
        rt.splitClocks();
    }

    /** Point lookup; returns whether @p key was found. */
    virtual bool workloadGet(pm::PmContext &ctx, ThreadId tid,
                             std::uint64_t key);

    /** Insert-or-update @p key := @p value (durably). */
    virtual void workloadPut(pm::PmContext &ctx, ThreadId tid,
                             std::uint64_t key, std::uint64_t value);

    /** Read-modify-write: value += @p delta. Returns found. */
    virtual bool workloadRmw(pm::PmContext &ctx, ThreadId tid,
                             std::uint64_t key, std::uint64_t delta);

    /**
     * Range scan of up to @p len consecutive key ids starting at
     * @p key (wrapping inside the thread's partition); returns the
     * number of keys found. Hash-layer apps emulate it as YCSB does
     * on non-ordered stores: @p len point lookups.
     */
    virtual std::uint64_t workloadScan(pm::PmContext &ctx, ThreadId tid,
                                       std::uint64_t key,
                                       std::uint64_t len);

    /** Per-thread epilogue after its last generated op. */
    virtual void
    workloadThreadDone(pm::PmContext &ctx, ThreadId tid)
    {
        (void)ctx;
        (void)tid;
    }

    /** Structural invariants after a generated-workload run. */
    virtual VerifyReport
    workloadCheck(Runtime &rt)
    {
        (void)rt;
        return report();
    }

    /** @} */
    /** @{ \name Durable-linearizability surface (src/lincheck/)
     *
     * Apps that additionally opt in (supportsLincheck()) give the
     * history checker two things the generated-workload surface does
     * not: a pure state probe (value read with no padding work, no
     * durability cadence — usable before the run and after recovery)
     * and, where the structure has deletion, a tombstone op. The
     * crash fuzzer's lincheck dimension and the workload driver's
     * recording mode only accept apps with this surface.
     */

    /** Whether this app supports history recording + checking. */
    virtual bool supportsLincheck() const { return false; }

    /**
     * Pure point read of @p key into @p value (untouched when
     * absent); returns found. Must issue no gated PM ops.
     */
    virtual bool workloadProbe(pm::PmContext &ctx, ThreadId tid,
                               std::uint64_t key, std::uint64_t &value);

    /** Whether workloadRemove() is implemented. */
    virtual bool workloadHasRemove() const { return false; }

    /** Durable delete of @p key; returns whether it was present. */
    virtual bool workloadRemove(pm::PmContext &ctx, ThreadId tid,
                                std::uint64_t key);

    /** @} */

    const AppConfig &config() const { return config_; }

  protected:
    /**
     * Layer hook under scrubRecovered(): repair or degrade the
     * poisoned @p lines (already zero-filled and readable) and erase
     * every line handled from @p lines. Default: claim nothing.
     */
    virtual void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &report)
    {
        (void)rt;
        (void)lines;
        (void)report;
    }

    /**
     * Workload hook under workloadSetup(): build the per-thread
     * structures over disjoint pool regions and preload every
     * partition of @p map, on the runtime's shared clock. Default:
     * fatal(), naming the app (no workload surface).
     */
    virtual void setupPartitions(Runtime &rt, const WorkloadKeymap &map);

    /** Empty report pre-stamped with this app's name and layer. */
    VerifyReport
    report() const
    {
        return VerifyReport(name(), accessLayerName(layer()));
    }

    AppConfig config_;
};

/**
 * Instantiate the suite app or test fixture named @p name; fatal() on
 * an unknown name. The names form one constant table
 * (src/apps/register.cc), so a name alone fixes an app's behaviour.
 */
std::unique_ptr<WhisperApp> createApp(const std::string &name,
                                      const AppConfig &config);

/** The fourteen suite app names, sorted; fixtures are not listed. */
std::vector<std::string> registeredApps();

} // namespace whisper::core

#endif // WHISPER_CORE_APP_HH
