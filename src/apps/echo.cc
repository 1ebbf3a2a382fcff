/**
 * @file
 * Echo: a scalable persistent key-value store (native access layer).
 *
 * Follows the design the paper describes (§3.2.1): a *master*
 * persistent KVS — a hash table whose entries hold chronologically
 * ordered version lists — plus per-client *volatile* local stores.
 * Clients batch updates, append the batch to a per-client persistent
 * log, and the master moves the updates into the persistent KVS.
 * Each batch is one durable transaction, which is why Echo has the
 * largest transactions in the suite (median 307 epochs in the paper's
 * Figure 3).
 *
 * Faithful behavioural details:
 *  - allocation via the single-heap BuddyAllocator with the
 *    FREE/VOLATILE/PERSISTENT state protocol (allocator-induced
 *    self-dependencies);
 *  - every data structure carries a descriptor whose status moves
 *    INPROGRESS -> CREATED in two consecutive epochs on the same
 *    cache line — the paper's example of an application-level
 *    self-dependency;
 *  - client log entries carry an 'applied' flag so recovery can
 *    re-apply a batch the crash interrupted (idempotently, using
 *    per-version timestamps).
 */

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "alloc/buddy_alloc.hh"
#include "apps/apps.hh"
#include "apps/instance_app.hh"
#include "common/logging.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

constexpr std::uint64_t kBuckets = 4096;
constexpr std::uint64_t kBatchSize = 48;
constexpr std::uint64_t kLogEntriesPerClient = 64;

/** Descriptor status protocol (paper: INPROGRESS -> CREATED). */
enum EchoStatus : std::uint64_t
{
    kInProgress = 0x111,
    kCreated = 0x222,
};

/** One version of a value, newest first in the chain. */
struct Version
{
    std::uint64_t value;
    std::uint64_t ts;       //!< batch timestamp (logical)
    std::uint64_t checksum; //!< value ^ ts ^ key
    Addr next;              //!< older version (kNullAddr at tail)
    std::uint64_t key;
};

/** Hash bucket head. */
struct Bucket
{
    Addr head; //!< newest Entry offset or kNullAddr
};

/** One key's entry: key + version chain + descriptor. */
struct Entry
{
    std::uint64_t key;
    std::uint64_t status;  //!< EchoStatus descriptor
    Addr versions;         //!< newest Version
    Addr next;             //!< next entry in bucket
};

/** Client log entry (fixed slots, reused round-robin per batch). */
struct LogEntry
{
    std::uint64_t key;
    std::uint64_t value;
    std::uint64_t ts;
    std::uint64_t applied; //!< 0/1
};

/** Persistent root of the whole store. */
struct EchoRoot
{
    std::uint64_t magic;
    std::uint64_t nextTs;           //!< global batch timestamp
    Bucket buckets[kBuckets];

    static constexpr std::uint64_t kMagic = 0xEC40EC40ull;
};

std::uint64_t
hashKey(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return key;
}

/**
 * One store: [root][client logs][buddy heap] over its own pool range.
 * The paper run's store serves every client; a workload thread's
 * store has one client, itself.
 */
struct Instance
{
    Addr rootOff = 0;
    Addr logsOff = 0;
    Addr heapOff = 0;
    unsigned clients = 0;
    std::uint64_t logCursor = 0; //!< next workload log slot
    std::unique_ptr<alloc::BuddyAllocator> heap;

    Addr
    logOff(unsigned client, std::uint64_t slot) const
    {
        return logsOff +
               (static_cast<Addr>(client) * kLogEntriesPerClient +
                slot) * sizeof(LogEntry);
    }

    Addr logsEnd() const { return logOff(clients, 0); }
};

/** Format an empty store for @p clients over [@p base, +@p bytes). */
Instance
formatStore(pm::PmContext &ctx, Addr base, std::size_t bytes,
            unsigned clients)
{
    Instance st;
    st.rootOff = base;
    st.clients = clients;
    st.logsOff = lineBase(base + sizeof(EchoRoot) + kCacheLineSize);
    st.heapOff = lineBase(st.logsEnd() + kCacheLineSize);
    st.heap = std::make_unique<alloc::BuddyAllocator>(
        ctx, st.heapOff, base + bytes - st.heapOff);

    EchoRoot root{};
    root.magic = EchoRoot::kMagic;
    root.nextTs = 1;
    for (auto &bucket : root.buckets)
        bucket.head = kNullAddr;
    ctx.store(base, &root, sizeof(root), DataClass::User);
    ctx.flush(base, sizeof(root));

    LogEntry empty{0, 0, 0, 1};
    for (Addr off = st.logsOff; off < st.logsEnd();
         off += sizeof(LogEntry))
        ctx.store(off, &empty, sizeof(empty), DataClass::Log);
    ctx.flush(st.logsOff, st.logsEnd() - st.logsOff);
    ctx.fence(FenceKind::Durability);
    return st;
}

/** Client-side batching/serialization (paper Fig. 6: Echo is ~5.5%
 *  PM accesses). */
void
pad(pm::PmContext &ctx, const void *base)
{
    ctx.vBurst(base, 1 << 16, 160, 70);
    ctx.compute(3200);
}

EchoRoot *
root(pm::PmContext &ctx, const Instance &st)
{
    return ctx.pool().at<EchoRoot>(st.rootOff);
}

/** Find (or create) the Entry for @p key; master lock held. */
Addr
findOrCreateEntry(pm::PmContext &ctx, Instance &st, std::uint64_t key)
{
    Bucket &bucket = root(ctx, st)->buckets[hashKey(key) % kBuckets];
    Addr cur = ctx.loadField(bucket.head);
    while (cur != kNullAddr) {
        Entry *ent = ctx.pool().at<Entry>(cur);
        if (ctx.loadField(ent->key) == key)
            return cur;
        cur = ent->next;
    }
    // Create: buddy alloc (VOLATILE) -> init with descriptor
    // INPROGRESS -> link -> CREATED -> PERSISTENT. The status
    // double-write on one line is the paper's Echo self-dep.
    const Addr off = st.heap->alloc(ctx, sizeof(Entry));
    panic_if(off == kNullAddr, "echo heap exhausted");
    Entry ent{key, kInProgress, kNullAddr, ctx.loadField(bucket.head)};
    ctx.store(off, &ent, sizeof(ent), DataClass::User);
    ctx.flush(off, sizeof(ent));
    ctx.fence(FenceKind::Ordering);
    ctx.storeField(bucket.head, off, DataClass::User);
    ctx.flush(ctx.pool().offsetOf(&bucket.head), 8);
    ctx.fence(FenceKind::Ordering);
    Entry *pent = ctx.pool().at<Entry>(off);
    const std::uint64_t created = kCreated;
    ctx.storeField(pent->status, created, DataClass::User);
    ctx.flush(off + offsetof(Entry, status), 8);
    ctx.fence(FenceKind::Ordering);
    st.heap->setState(ctx, off, alloc::BlockState::Persistent);
    return off;
}

/** Read-only bucket walk: Entry for @p key or kNullAddr. */
Addr
findEntry(pm::PmContext &ctx, const Instance &st, std::uint64_t key)
{
    Addr cur = root(ctx, st)->buckets[hashKey(key) % kBuckets].head;
    while (cur != kNullAddr) {
        std::uint64_t probe = 0;
        ctx.load(cur + offsetof(Entry, key), &probe, 8);
        if (probe == key)
            return cur;
        cur = ctx.pool().at<Entry>(cur)->next;
    }
    return kNullAddr;
}

/** Publish a new newest version (value, ts) of @p key. */
void
applyUpdate(pm::PmContext &ctx, Instance &st, std::uint64_t key,
            std::uint64_t value, std::uint64_t ts)
{
    const Addr entry_off = findOrCreateEntry(ctx, st, key);
    const Addr voff = st.heap->alloc(ctx, sizeof(Version));
    panic_if(voff == kNullAddr, "echo heap exhausted");
    Entry *ent = ctx.pool().at<Entry>(entry_off);
    Version ver{value, ts, value ^ ts ^ key,
                ctx.loadField(ent->versions), key};
    ctx.store(voff, &ver, sizeof(ver), DataClass::User);
    ctx.flush(voff, sizeof(ver));
    ctx.fence(FenceKind::Ordering);
    // Publish: single 8-byte pointer flip.
    ctx.storeField(ent->versions, voff, DataClass::User);
    ctx.flush(entry_off + offsetof(Entry, versions), 8);
    ctx.fence(FenceKind::Ordering);
    st.heap->setState(ctx, voff, alloc::BlockState::Persistent);
}

/** Bump the store's global batch timestamp; returns the old one. */
std::uint64_t
takeTimestamp(pm::PmContext &ctx, const Instance &st)
{
    EchoRoot *r = root(ctx, st);
    const std::uint64_t ts = ctx.loadField(r->nextTs);
    const std::uint64_t next_ts = ts + 1;
    ctx.storeField(r->nextTs, next_ts, DataClass::User);
    ctx.flush(st.rootOff + offsetof(EchoRoot, nextTs), 8);
    ctx.fence(FenceKind::Ordering);
    return ts;
}

/** Mark log slot @p off applied (flushed; the caller fences). */
void
markApplied(pm::PmContext &ctx, Addr off)
{
    const std::uint64_t one = 1;
    auto *ent = ctx.pool().at<LogEntry>(off);
    ctx.storeField(ent->applied, one, DataClass::Log);
    ctx.flush(off + offsetof(LogEntry, applied), 8);
}

/** Structural + checksum walk over the whole persistent store. */
bool
checkStore(pm::PmContext &ctx, const Instance &st, std::string *why)
{
    const EchoRoot *r = root(ctx, st);
    if (r->magic != EchoRoot::kMagic) {
        if (why)
            *why = "bad root magic";
        return false;
    }
    for (std::uint64_t b = 0; b < kBuckets; b++) {
        Addr cur = r->buckets[b].head;
        std::uint64_t guard = 0;
        while (cur != kNullAddr) {
            if (++guard > 10'000'000) {
                if (why)
                    *why = "bucket chain cycle";
                return false;
            }
            const Entry *ent = ctx.pool().at<Entry>(cur);
            if (ent->status != kCreated) {
                if (why)
                    *why = "entry with unfinished descriptor";
                return false;
            }
            if (hashKey(ent->key) % kBuckets != b) {
                if (why)
                    *why = "entry in wrong bucket";
                return false;
            }
            std::uint64_t prev_ts = ~std::uint64_t(0);
            Addr v = ent->versions;
            while (v != kNullAddr) {
                const Version *ver = ctx.pool().at<Version>(v);
                if (ver->checksum != (ver->value ^ ver->ts ^ ver->key)) {
                    if (why)
                        *why = "version checksum mismatch";
                    return false;
                }
                if (ver->key != ent->key || ver->ts > prev_ts) {
                    if (why)
                        *why = "version chain out of order";
                    return false;
                }
                prev_ts = ver->ts;
                v = ver->next;
            }
            cur = ent->next;
        }
    }
    return true;
}

class EchoApp : public InstanceApp<Instance>
{
  public:
    explicit EchoApp(const AppConfig &config)
        : InstanceApp(config,
                      sizeof(EchoRoot) +
                          kLogEntriesPerClient * sizeof(LogEntry) +
                          (4u << 20))
    {
    }

    std::string name() const override { return "echo"; }
    AccessLayer layer() const override { return AccessLayer::Native; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed + tid * 7919);
        const std::uint64_t key_space =
            std::max<std::uint64_t>(1024, config_.opsPerThread);
        // Volatile local store: the client-side cache Echo uses to
        // service local reads (the bulk of DRAM traffic).
        std::unordered_map<std::uint64_t, std::uint64_t> local;
        local.reserve(key_space / 4);

        std::uint64_t done = 0;
        while (done < config_.opsPerThread) {
            const std::uint64_t batch =
                std::min<std::uint64_t>(kBatchSize,
                                        config_.opsPerThread - done);
            // Stage the batch in the volatile store first.
            std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
            ops.reserve(batch);
            for (std::uint64_t i = 0; i < batch; i++) {
                const std::uint64_t key = rng.next(key_space);
                const std::uint64_t value = rng();
                local[key] = value;
                ctx.vStore(&local[key], 8);
                // Local read mix: clients mostly read their own store.
                for (int r = 0; r < 6; r++) {
                    const std::uint64_t probe = rng.next(key_space);
                    auto it = local.find(probe);
                    ctx.vLoad(ctx.scratch(), 8);
                    if (it != local.end())
                        ctx.vLoad(&it->second, 8);
                }
                ops.emplace_back(key, value);
                pad(ctx, &local);
            }
            std::lock_guard<std::mutex> guard(masterLock_);
            submitBatch(ctx, inst_[0], tid, ops);
            done += batch;
        }
    }

    alloc::AllocStats
    recoveredHeapStats() const override
    {
        return inst_[0].heap->stats();
    }

  protected:
    void
    recoverInstance(pm::PmContext &ctx, Instance &st) override
    {
        // Before the heap reclaims VOLATILE blocks, unlink anything
        // the crash left half-published: entries whose descriptor
        // never reached CREATED (or whose block never reached
        // PERSISTENT) and version-chain heads still VOLATILE.
        EchoRoot *r = root(ctx, st);
        for (std::uint64_t b = 0; b < kBuckets; b++) {
            Bucket &bucket = r->buckets[b];
            // Prune the chain head while it is unfinished.
            while (bucket.head != kNullAddr) {
                Entry *ent = ctx.pool().at<Entry>(bucket.head);
                if (ent->status == kCreated &&
                    st.heap->state(ctx, bucket.head) ==
                        alloc::BlockState::Persistent) {
                    break;
                }
                ctx.storeField(bucket.head, ent->next, DataClass::User);
                ctx.flush(ctx.pool().offsetOf(&bucket.head), 8);
                ctx.fence(FenceKind::Ordering);
            }
            // Interior entries were linked before any newer head, so
            // only the head can be unfinished; still scan versions.
            for (Addr cur = bucket.head; cur != kNullAddr;) {
                Entry *ent = ctx.pool().at<Entry>(cur);
                while (ent->versions != kNullAddr &&
                       st.heap->state(ctx, ent->versions) !=
                           alloc::BlockState::Persistent) {
                    const Version *ver =
                        ctx.pool().at<Version>(ent->versions);
                    ctx.storeField(ent->versions, ver->next,
                                   DataClass::User);
                    ctx.flush(cur + offsetof(Entry, versions), 8);
                    ctx.fence(FenceKind::Ordering);
                }
                cur = ent->next;
            }
        }
        st.heap->recover(ctx);
        // Re-apply any batch whose log entries were durable but not
        // yet marked applied (idempotent thanks to the version ts).
        for (unsigned client = 0; client < st.clients; client++) {
            for (std::uint64_t slot = 0; slot < kLogEntriesPerClient;
                 slot++) {
                const Addr off = st.logOff(client, slot);
                LogEntry ent{};
                ctx.load(off, &ent, sizeof(ent));
                if (ent.applied || ent.ts == 0)
                    continue;
                if (ent.key ^ ent.value ^ ent.ts) {
                    // Entry is well-formed only if a matching version
                    // is absent; apply then mark.
                    if (!versionExists(ctx, st, ent.key, ent.ts))
                        applyUpdate(ctx, st, ent.key, ent.value, ent.ts);
                }
                markApplied(ctx, off);
                ctx.fence(FenceKind::Ordering);
            }
        }
    }

  public:
    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        // Descriptor/state protocol: after recovery every reachable
        // entry and version must have finished INPROGRESS -> CREATED
        // and VOLATILE -> PERSISTENT; recovery prunes stragglers.
        pm::PmContext &ctx = rt.ctx(0);
        VerifyReport rep = report();
        for (const Instance &st : inst_) {
            EchoRoot *r = root(ctx, st);
            for (std::uint64_t b = 0; b < kBuckets; b++) {
                for (Addr cur = r->buckets[b].head; cur != kNullAddr;) {
                    const Entry *ent = ctx.pool().at<Entry>(cur);
                    if (!rep.check(
                            ent->status == kCreated &&
                                st.heap->state(ctx, cur) ==
                                    alloc::BlockState::Persistent,
                            "descriptors-settled",
                            "echo entry with unsettled descriptor"))
                        return rep;
                    for (Addr v = ent->versions; v != kNullAddr;) {
                        if (!rep.check(st.heap->state(ctx, v) ==
                                           alloc::BlockState::Persistent,
                                       "versions-persistent",
                                       "echo version still VOLATILE"))
                            return rep;
                        v = ctx.pool().at<Version>(v)->next;
                    }
                    cur = ent->next;
                }
            }
        }
        return rep;
    }

  protected:
    /**
     * Media scrub (WhisperApp::scrubRecovered). Poisoned lines arrive
     * zero-filled, and 0 is not kNullAddr: a zeroed bucket head or
     * chain pointer would send recovery's walks to offset 0 and from
     * there out of the heap. Repair what the layout makes
     * reconstructible — the magic, pointer nulls, nextTs from the
     * surviving versions — truncate chains at lost nodes, and declare
     * everything cut as a named Degraded loss. Heap lines need no
     * repair of their own: BuddyAllocator::recover reformats any
     * block whose header was zeroed.
     */
    void
    scrubInstance(pm::PmContext &ctx, Instance &st,
                  std::vector<LineAddr> &lines, VerifyReport &rep) override
    {
        const Addr root_off = st.rootOff;
        const Addr heap_off = st.heapOff;
        const Addr logs_end = st.logsEnd();
        std::vector<LineAddr> root_lines, log_lines, heap_lines, rest;
        for (const LineAddr line : lines) {
            const Addr off = static_cast<Addr>(line) << kCacheLineBits;
            if (off >= root_off && off < root_off + sizeof(EchoRoot))
                root_lines.push_back(line);
            else if (off >= st.logsOff && off < logs_end)
                log_lines.push_back(line);
            else if (off >= heap_off &&
                     off < heap_off + st.heap->heapSize())
                heap_lines.push_back(line);
            else
                rest.push_back(line);
        }

        // Root lines: every word is the magic, the timestamp or a
        // bucket head. Re-null the heads (their chains are gone) and
        // restore the magic; nextTs is recomputed from the walk below.
        bool ts_lost = false;
        for (const LineAddr line : root_lines) {
            const Addr lo = static_cast<Addr>(line) << kCacheLineBits;
            const Addr hi = std::min<Addr>(
                lo + kCacheLineSize, root_off + sizeof(EchoRoot));
            for (Addr w = lo; w < hi; w += 8) {
                if (w == root_off + offsetof(EchoRoot, magic)) {
                    const std::uint64_t magic = EchoRoot::kMagic;
                    ctx.store(w, &magic, 8, DataClass::User);
                } else if (w ==
                           root_off + offsetof(EchoRoot, nextTs)) {
                    ts_lost = true;
                } else {
                    const Addr null = kNullAddr;
                    ctx.store(w, &null, 8, DataClass::User);
                }
            }
            ctx.persist(lo, hi - lo);
        }

        // Chain truncation: a node is lost when any of its lines was
        // poisoned or its address no longer lands inside the heap
        // (the referrer's pointer word itself was zeroed).
        const auto node_lost = [&](Addr off, std::size_t n) {
            if (off < heap_off + sizeof(alloc::BuddyHeader) ||
                off + n > heap_off + st.heap->heapSize())
                return true;
            for (LineAddr l = lineOf(off); l <= lineOf(off + n - 1);
                 l++) {
                if (std::find(heap_lines.begin(), heap_lines.end(),
                              l) != heap_lines.end())
                    return true;
            }
            return false;
        };
        const auto cut = [&](Addr slot) {
            const Addr null = kNullAddr;
            ctx.store(slot, &null, 8, DataClass::User);
            ctx.persist(slot, 8);
        };
        std::uint64_t chains_cut = 0;
        std::uint64_t max_ts = 0;
        for (std::uint64_t b = 0; b < kBuckets; b++) {
            Addr slot = root_off + offsetof(EchoRoot, buckets) +
                        b * sizeof(Bucket);
            Addr cur = 0;
            ctx.load(slot, &cur, 8);
            while (cur != kNullAddr) {
                if (node_lost(cur, sizeof(Entry))) {
                    cut(slot);
                    chains_cut++;
                    break;
                }
                const Entry *ent = ctx.pool().at<Entry>(cur);
                Addr vslot = cur + offsetof(Entry, versions);
                Addr v = ent->versions;
                while (v != kNullAddr) {
                    if (node_lost(v, sizeof(Version))) {
                        cut(vslot);
                        chains_cut++;
                        break;
                    }
                    const Version *ver =
                        ctx.pool().at<Version>(v);
                    max_ts = std::max(max_ts, ver->ts);
                    vslot = v + offsetof(Version, next);
                    v = ver->next;
                }
                slot = cur + offsetof(Entry, next);
                cur = ent->next;
            }
        }
        if (ts_lost) {
            const std::uint64_t next_ts = max_ts + 1;
            ctx.store(root_off + offsetof(EchoRoot, nextTs), &next_ts,
                      8, DataClass::User);
            ctx.persist(root_off + offsetof(EchoRoot, nextTs), 8);
        }

        if (!root_lines.empty()) {
            rep.degrade("echo-root-lost",
                        "bucket heads re-nulled on zero-filled root "
                        "lines; their chains are unreachable",
                        root_lines);
        }
        if (chains_cut > 0) {
            rep.degrade("echo-chain-lost",
                        std::to_string(chains_cut) +
                            " entry/version chain(s) truncated at "
                            "media-lost nodes",
                        heap_lines);
        }
        if (!log_lines.empty()) {
            // A zeroed LogEntry reads ts == 0 and recovery skips the
            // slot; the batch it held can no longer be re-applied.
            rep.degrade("echo-log-lost",
                        "client log slots zero-filled; their batches "
                        "cannot be re-applied",
                        log_lines);
        }
        lines = std::move(rest);
    }

  private:
    static bool
    versionExists(pm::PmContext &ctx, const Instance &st,
                  std::uint64_t key, std::uint64_t ts)
    {
        Addr cur = root(ctx, st)->buckets[hashKey(key) % kBuckets].head;
        while (cur != kNullAddr) {
            Entry *ent = ctx.pool().at<Entry>(cur);
            if (ent->key == key) {
                Addr v = ent->versions;
                while (v != kNullAddr) {
                    const Version *ver = ctx.pool().at<Version>(v);
                    if (ver->ts == ts)
                        return true;
                    v = ver->next;
                }
                return false;
            }
            cur = ent->next;
        }
        return false;
    }

    /** One durable batch of client @p tid; master lock held. */
    static void
    submitBatch(
        pm::PmContext &ctx, Instance &st, ThreadId tid,
        const std::vector<std::pair<std::uint64_t, std::uint64_t>> &ops)
    {
        const TxId tx = ctx.txBegin();
        // Global timestamp bump: a shared persistent variable written
        // by every client — the cross-dependency source.
        const std::uint64_t ts = takeTimestamp(ctx, st);

        // 1. Persist the batch into this client's log slots.
        for (std::size_t i = 0; i < ops.size(); i++) {
            LogEntry ent{ops[i].first, ops[i].second, ts, 0};
            ctx.ntStore(st.logOff(tid, i), &ent, sizeof(ent),
                        DataClass::Log);
        }
        ctx.fence(FenceKind::Ordering);

        // 2. Master applies each update to the persistent KVS.
        for (const auto &[key, value] : ops)
            applyUpdate(ctx, st, key, value, ts);

        // 3. Mark the log entries applied (one epoch for the batch).
        for (std::size_t i = 0; i < ops.size(); i++)
            markApplied(ctx, st.logOff(tid, i));
        ctx.fence(FenceKind::Durability);
        ctx.txEnd(tx);
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // Echo's client/master split maps naturally onto partitioned
    // workload threads: each thread is a client *and* the master for
    // its own key range, with a private one-client store over a
    // disjoint pool slice. Every put keeps Echo's log-then-apply shape
    // (persist the update into a log slot, apply it as a new version,
    // mark the slot applied), so the access mix matches run()'s
    // single-update granularity.

    /** run()'s per-update client staging over one probe word. */
    static void
    wlPad(pm::PmContext &ctx)
    {
        ctx.vStore(ctx.scratch(), 8);
        for (int r = 0; r < 6; r++)
            ctx.vLoad(ctx.scratch(), 8);
        pad(ctx, ctx.scratch());
    }

    /**
     * Read entry @p ent's newest version: just its value into
     * @p value when given, else the whole version. Returns whether
     * the entry has a version.
     */
    static bool
    loadNewest(pm::PmContext &ctx, Addr ent, std::uint64_t *value)
    {
        Addr voff = 0;
        ctx.load(ent + offsetof(Entry, versions), &voff, 8);
        if (voff == kNullAddr)
            return false;
        if (value) {
            ctx.load(voff + offsetof(Version, value), value, 8);
        } else {
            Version ver{};
            ctx.load(voff, &ver, sizeof(ver));
        }
        return true;
    }

  public:
    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        wlPad(ctx);
        const Addr ent = findEntry(ctx, inst_[tid], key);
        if (ent == kNullAddr)
            return false;
        loadNewest(ctx, ent, nullptr);
        return true;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        Instance &st = inst_[tid];
        wlPad(ctx);
        const std::uint64_t ts = takeTimestamp(ctx, st);

        // Log-then-apply, a one-update batch in run()'s terms.
        const Addr slot_off =
            st.logOff(0, st.logCursor++ % kLogEntriesPerClient);
        LogEntry ent{key, value, ts, 0};
        ctx.ntStore(slot_off, &ent, sizeof(ent), DataClass::Log);
        ctx.fence(FenceKind::Ordering);
        applyUpdate(ctx, st, key, value, ts);
        markApplied(ctx, slot_off);
        ctx.fence(FenceKind::Durability);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        const Addr ent = findEntry(ctx, inst_[tid], key);
        std::uint64_t value = 0;
        const bool found =
            ent != kNullAddr && loadNewest(ctx, ent, &value);
        workloadPut(ctx, tid, key, value + delta);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        wlPad(ctx);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const Addr ent =
                findEntry(ctx, inst_[tid], wlMap_.scanKey(tid, key, j));
            if (ent == kNullAddr)
                continue;
            loadNewest(ctx, ent, nullptr);
            found++;
        }
        return found;
    }

  protected:
    Instance
    format(pm::PmContext &ctx, Addr base, std::size_t bytes,
           bool workload) override
    {
        return formatStore(ctx, base, bytes, lanes(workload));
    }

    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        for (std::uint64_t i = 0; i < wlMap_.perThread(); i++) {
            const std::uint64_t key = wlMap_.lo(tid) + i;
            applyUpdate(ctx, inst_[tid], key,
                        WorkloadKeymap::loadedValue(key), 1);
        }
    }

    void
    checkStructure(pm::PmContext &ctx, Instance &st, bool clean,
                   VerifyReport &rep) override
    {
        (void)clean;
        std::string why;
        rep.check(checkStore(ctx, st, &why), "store-intact", why);
    }

  private:
    std::mutex masterLock_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeEchoApp(const core::AppConfig &config)
{
    return std::make_unique<EchoApp>(config);
}

} // namespace whisper::apps
