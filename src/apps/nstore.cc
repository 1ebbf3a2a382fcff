/**
 * @file
 * N-store: a persistent-memory RDBMS (native access layer), with the
 * OPTWAL engine and YCSB-like / TPC-C-like drivers.
 *
 * Faithful behavioural details (paper §3.2.1):
 *  - the database is partitioned; each client thread owns one
 *    partition and executes transactions on it independently;
 *  - OPTWAL keeps tables and indexes in PM segments from a global
 *    allocator and uses a per-thread *undo log*: the old tuple image
 *    is logged (store + flush + fence) before each in-place update,
 *    updates are cacheable stores flushed at commit, and the log
 *    entries are cleared one per epoch;
 *  - the single-heap BuddyAllocator supplies tuples; N-store tags
 *    every block FREE / VOLATILE / PERSISTENT, writing the state
 *    variable up to three times per transaction (the paper's
 *    allocator self-dependency example);
 *  - every tuple carries a checksum over its payload, updated in the
 *    same transaction — after any crash + rollback, every reachable
 *    tuple's checksum must validate.
 *
 * The YCSB-like driver issues zipfian single-partition transactions
 * of four operations at 80% writes; the TPC-C-like driver issues
 * new-order (insert order + 5..15 order lines + stock updates),
 * payment, and order-status transactions at 40% writes overall.
 */

#include <algorithm>
#include <unordered_map>

#include "alloc/buddy_alloc.hh"
#include "apps/apps.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "txlib/mnemosyne.hh" // foldChecksum

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;
using mne::foldChecksum;

namespace
{

constexpr std::size_t kTupleValueBytes = 96;
constexpr std::uint64_t kIndexBuckets = 8192;
constexpr std::size_t kUndoLogBytes = 512 << 10;
constexpr unsigned kUndoSegments = 32;
constexpr std::size_t kUndoSegmentBytes = kUndoLogBytes / kUndoSegments;

/** One table row. */
struct Tuple
{
    std::uint64_t key;
    std::uint64_t seq;        //!< bumped each committed update
    std::uint32_t checksum;   //!< folds key, seq and value
    std::uint32_t pad;
    std::uint8_t value[kTupleValueBytes];
    Addr next;                //!< index bucket chain
};

/** Per-partition persistent header. */
struct Partition
{
    std::uint64_t magic;
    std::uint64_t tupleCount;
    /**
     * Offset of the undo-log segment of the in-flight transaction
     * (kNullAddr when none) and its sequence number. OPTWAL is an
     * *optimized* WAL: instead of clearing every record, commit
     * retires the whole log with this single pointer write — one of
     * the reasons the native engines outrun the libraries in Table 1.
     */
    Addr activeLog;
    std::uint64_t activeSeq;
    Addr index[kIndexBuckets];

    static constexpr std::uint64_t kMagic = 0x4E53544Full; // "NSTO"
};

/**
 * Per-partition undo-log record, cache-line aligned. OPTWAL never
 * clears records; instead every record carries the transaction's
 * sequence number and recovery only honours records whose sequence
 * matches the published one — stale records from the segment's
 * previous use fail the check.
 */
struct UndoRec
{
    std::uint32_t magic;
    std::uint32_t size;
    Addr addr;
    std::uint32_t checksum;
    std::uint32_t pad;
    std::uint64_t seq;

    static constexpr std::uint32_t kMagic = 0x4F505457u; // "OPTW"
};

std::uint64_t
hashKey(std::uint64_t key)
{
    key ^= key >> 30;
    key *= kMixMul1;
    key ^= key >> 27;
    return key;
}

std::uint32_t
tupleChecksum(const Tuple &t)
{
    return foldChecksum(&t.value, sizeof(t.value)) ^
           static_cast<std::uint32_t>(t.key) ^
           static_cast<std::uint32_t>(t.seq);
}

constexpr Addr kPartBytes = lineBase(sizeof(Partition) + kCacheLineSize);

/**
 * One database: [partition headers][undo logs][buddy heap] over its
 * own pool range. The paper run's database has one partition per
 * client thread sharing one heap; a workload thread's database is a
 * single partition with a private heap.
 */
struct Instance
{
    Addr partsOff = 0;
    Addr undoOff = 0;
    Addr heapOff = 0;
    unsigned partitions = 0;
    std::vector<std::uint32_t> segCursor; //!< next undo segment
    std::vector<std::uint64_t> txSeq;     //!< next transaction seq
    std::unique_ptr<alloc::BuddyAllocator> heap;

    Addr
    partOff(unsigned p) const
    {
        return partsOff + static_cast<Addr>(p) * kPartBytes;
    }

    Addr
    undoLogOff(unsigned p) const
    {
        return undoOff + static_cast<Addr>(p) * kUndoLogBytes;
    }
};

/** Format @p partitions empty partitions over [@p base, +@p bytes). */
Instance
formatDb(pm::PmContext &ctx, Addr base, std::size_t bytes,
         unsigned partitions)
{
    Instance db;
    db.partsOff = base;
    db.partitions = partitions;
    db.undoOff = db.partOff(partitions);
    db.heapOff = lineBase(db.undoLogOff(partitions) + kCacheLineSize);
    db.heap = std::make_unique<alloc::BuddyAllocator>(
        ctx, db.heapOff, base + bytes - db.heapOff);

    for (unsigned p = 0; p < partitions; p++) {
        Partition hdr{};
        hdr.magic = Partition::kMagic;
        hdr.activeLog = kNullAddr;
        for (auto &slot : hdr.index)
            slot = kNullAddr;
        ctx.store(db.partOff(p), &hdr, sizeof(hdr), DataClass::User);
        ctx.flush(db.partOff(p), sizeof(hdr));
        UndoRec end{UndoRec::kMagic, 0, 0, 0, 0, 0};
        ctx.store(db.undoLogOff(p), &end, sizeof(end), DataClass::Log);
        ctx.flush(db.undoLogOff(p), sizeof(end));
    }
    db.segCursor.assign(partitions, 0);
    db.txSeq.assign(partitions, 1);
    ctx.fence(FenceKind::Durability);
    return db;
}

/** Query parsing, plan caching, client buffers: N-store YCSB is
 *  ~8.7% PM accesses in the paper's Figure 6. */
void
pad(pm::PmContext &ctx, const void *base)
{
    ctx.vBurst(base, 1 << 16, 1000, 420);
    ctx.compute(2500);
}

Partition *
partition(pm::PmContext &ctx, const Instance &db, unsigned p)
{
    return ctx.pool().at<Partition>(db.partOff(p));
}

/** @{ \name OPTWAL undo logging (per partition) */

/** The in-flight transaction of one partition. */
struct UndoTx
{
    TxId id;
    Addr head;          //!< next record slot in the log segment
    std::uint64_t seq;  //!< published transaction sequence
    std::vector<std::pair<Addr, std::uint32_t>> dirty; //!< to flush
};

void
undoAppend(pm::PmContext &ctx, const Instance &db, unsigned p,
           UndoTx &tx, Addr addr, std::uint32_t size)
{
    const Addr undo = db.undoLogOff(p);
    const Addr seg_base =
        undo + (tx.head - undo) / kUndoSegmentBytes * kUndoSegmentBytes;
    panic_if(tx.head + sizeof(UndoRec) + size >
                 seg_base + kUndoSegmentBytes,
             "OPTWAL undo log overflow");
    std::vector<std::uint8_t> old(size);
    ctx.load(addr, old.data(), size);
    UndoRec rec{UndoRec::kMagic, size, addr,
                foldChecksum(old.data(), size), 0, tx.seq};
    ctx.store(tx.head, &rec, sizeof(rec), DataClass::Log);
    ctx.store(tx.head + sizeof(rec), old.data(), size, DataClass::Log);
    ctx.flush(tx.head, sizeof(rec) + size);
    // Records are cache-line aligned (as PMFS-era logs are), so
    // consecutive appends never share a line.
    tx.head = lineBase(tx.head + sizeof(rec) + size + kCacheLineSize - 1);
    ctx.fence(FenceKind::Ordering);
}

/** Retire the whole log with one pointer write (OPTWAL). */
void
undoRetire(pm::PmContext &ctx, const Instance &db, unsigned p)
{
    Partition *part = partition(ctx, db, p);
    const Addr none = kNullAddr;
    ctx.storeField(part->activeLog, none, DataClass::TxMeta);
    ctx.flush(ctx.pool().offsetOf(&part->activeLog), 8);
    ctx.fence(FenceKind::Ordering);
}

/**
 * Begin a transaction on partition @p p: take the next rotating log
 * segment and publish it with a fresh sequence number.
 */
UndoTx
beginTx(pm::PmContext &ctx, Instance &db, unsigned p)
{
    const TxId id = ctx.txBegin();
    const unsigned seg = db.segCursor[p]++ % kUndoSegments;
    const Addr seg_base =
        db.undoLogOff(p) + static_cast<Addr>(seg) * kUndoSegmentBytes;
    Partition *part = partition(ctx, db, p);
    const std::uint64_t seq = db.txSeq[p]++;
    const struct { Addr log; std::uint64_t seq; } cell{seg_base, seq};
    ctx.store(ctx.pool().offsetOf(&part->activeLog), &cell,
              sizeof(cell), DataClass::TxMeta);
    ctx.flush(ctx.pool().offsetOf(&part->activeLog), sizeof(cell));
    ctx.fence(FenceKind::Ordering);
    return UndoTx{id, seg_base, seq, {}};
}

/** Commit: flush updated tuples, fence once, retire the log. */
void
commitTx(pm::PmContext &ctx, const Instance &db, unsigned p,
         const UndoTx &tx)
{
    for (const auto &[off, n] : tx.dirty)
        ctx.flush(off, n);
    ctx.fence(FenceKind::Durability);
    undoRetire(ctx, db, p);
    ctx.txEnd(tx.id);
}

void
rollbackUndo(pm::PmContext &ctx, const Instance &db, unsigned p)
{
    // Only the published segment (if any) is live, and only records
    // tagged with the published sequence belong to it.
    Partition *part = partition(ctx, db, p);
    const Addr seg_base = part->activeLog;
    const std::uint64_t seq = part->activeSeq;
    if (seg_base == kNullAddr)
        return;
    struct Rec { Addr addr; std::uint32_t size; Addr payload; };
    std::vector<Rec> recs;
    Addr cursor = seg_base;
    const Addr limit = seg_base + kUndoSegmentBytes;
    while (cursor + sizeof(UndoRec) <= limit) {
        UndoRec rec{};
        ctx.load(cursor, &rec, sizeof(rec));
        if (rec.magic != UndoRec::kMagic || rec.size == 0 ||
            rec.seq != seq) {
            break; // stale record from a previous use
        }
        const Addr payload = cursor + sizeof(UndoRec);
        if (payload + rec.size > limit ||
            foldChecksum(ctx.pool().at<std::uint8_t>(payload),
                         rec.size) != rec.checksum) {
            break; // torn tail; its target was never modified
        }
        recs.push_back({rec.addr, rec.size, payload});
        cursor = lineBase(payload + rec.size + kCacheLineSize - 1);
    }
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
        std::vector<std::uint8_t> old(it->size);
        ctx.load(it->payload, old.data(), it->size);
        ctx.store(it->addr, old.data(), it->size, DataClass::User);
        ctx.flush(it->addr, it->size);
        ctx.fence(FenceKind::Ordering);
    }
    undoRetire(ctx, db, p);
    ctx.fence(FenceKind::Durability);
}

/** @} */

Addr
findTuple(pm::PmContext &ctx, const Instance &db, unsigned p,
          std::uint64_t key)
{
    Addr cur = partition(ctx, db, p)->index[hashKey(key) % kIndexBuckets];
    while (cur != kNullAddr) {
        std::uint64_t probe_key = 0;
        ctx.load(cur + offsetof(Tuple, key), &probe_key, 8);
        if (probe_key == key)
            return cur;
        cur = ctx.pool().at<Tuple>(cur)->next;
    }
    return kNullAddr;
}

/**
 * Insert a fresh tuple. Inside transaction @p tx the index link and
 * count are journaled; during the load phase @p tx is null and only
 * the allocator's protocol runs.
 */
Addr
insertTuple(pm::PmContext &ctx, Instance &db, unsigned p,
            std::uint64_t key, Rng &rng, UndoTx *tx)
{
    const Addr off = db.heap->alloc(ctx, sizeof(Tuple));
    panic_if(off == kNullAddr, "nstore heap exhausted");
    Partition *part = partition(ctx, db, p);
    Addr &slot = part->index[hashKey(key) % kIndexBuckets];

    Tuple t{};
    t.key = key;
    t.seq = 0;
    for (auto &b : t.value)
        b = static_cast<std::uint8_t>(rng());
    t.checksum = tupleChecksum(t);
    t.next = ctx.loadField(slot);
    ctx.store(off, &t, sizeof(t), DataClass::User);
    ctx.flush(off, sizeof(t));
    ctx.fence(FenceKind::Ordering);

    if (tx)
        undoAppend(ctx, db, p, *tx, ctx.pool().offsetOf(&slot), 8);
    ctx.storeField(slot, off, DataClass::User);
    ctx.flush(ctx.pool().offsetOf(&slot), 8);
    ctx.fence(FenceKind::Ordering);
    db.heap->setState(ctx, off, alloc::BlockState::Persistent);

    const std::uint64_t n = ctx.loadField(part->tupleCount) + 1;
    if (tx) {
        undoAppend(ctx, db, p, *tx,
                   ctx.pool().offsetOf(&part->tupleCount), 8);
    }
    ctx.storeField(part->tupleCount, n, DataClass::User);
    ctx.flush(ctx.pool().offsetOf(&part->tupleCount), 8);
    return off;
}

/**
 * In-place update of @p cols columns under the undo log. N-store
 * logs each attribute mutation separately (set_varchar in the paper's
 * Figure 2 is per-column), so an update of several columns fragments
 * into that many undo/data epoch pairs — the alternating-epoch
 * pattern the paper attributes to undo logging.
 */
void
updateTuple(pm::PmContext &ctx, const Instance &db, unsigned p,
            Addr off, Rng &rng, UndoTx &tx, unsigned cols)
{
    Tuple *t = ctx.pool().at<Tuple>(off);
    for (unsigned c = 0; c < cols; c++) {
        const std::uint64_t field = rng.next(kTupleValueBytes / 10);
        const Addr field_off = off + offsetof(Tuple, value) + field * 10;
        undoAppend(ctx, db, p, tx, field_off, 10);
        std::uint8_t bytes[10];
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng());
        ctx.store(field_off, bytes, sizeof(bytes), DataClass::User);
        tx.dirty.emplace_back(field_off, 10);
    }
    // Header (seq + checksum) under one more record.
    undoAppend(ctx, db, p, tx, off + offsetof(Tuple, seq), 16);
    const std::uint64_t tuple_seq = t->seq + 1;
    ctx.storeField(t->seq, tuple_seq, DataClass::User);
    const std::uint32_t sum = tupleChecksum(*t);
    ctx.storeField(t->checksum, sum, DataClass::User);
    tx.dirty.emplace_back(off + offsetof(Tuple, seq), 16);
}

/** Index chains, tuple checksums and the tuple count of @p p. */
bool
checkPartition(pm::PmContext &ctx, const Instance &db, unsigned p,
               std::string *why)
{
    const Partition *part = partition(ctx, db, p);
    if (part->magic != Partition::kMagic) {
        if (why)
            *why = "bad partition magic";
        return false;
    }
    std::uint64_t seen = 0;
    for (std::uint64_t b = 0; b < kIndexBuckets; b++) {
        Addr cur = part->index[b];
        std::uint64_t guard = 0;
        while (cur != kNullAddr) {
            if (++guard > 10'000'000) {
                if (why)
                    *why = "index chain cycle";
                return false;
            }
            const Tuple *t = ctx.pool().at<Tuple>(cur);
            if (t->checksum != tupleChecksum(*t)) {
                if (why)
                    *why = "tuple checksum mismatch (torn "
                           "update survived recovery)";
                return false;
            }
            if (hashKey(t->key) % kIndexBuckets != b) {
                if (why)
                    *why = "tuple in wrong bucket";
                return false;
            }
            seen++;
            cur = t->next;
        }
    }
    if (seen > part->tupleCount + 1) {
        if (why)
            *why = "tupleCount below reachable tuples";
        return false;
    }
    return true;
}

/** Which driver shapes the transactions. */
enum class NstoreWorkload { Ycsb, Tpcc };

class NstoreApp : public WhisperApp
{
  public:
    NstoreApp(const AppConfig &config, NstoreWorkload workload)
        : WhisperApp(config), workload_(workload)
    {
    }

    std::string
    name() const override
    {
        return workload_ == NstoreWorkload::Ycsb ? "ycsb" : "tpcc";
    }

    AccessLayer layer() const override { return AccessLayer::Native; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        inst_.clear();
        inst_.push_back(
            formatDb(ctx, 0, config_.poolBytes, config_.threads));

        // Load phase: each partition gets its initial tuples.
        const std::uint64_t rows = initialRows();
        for (unsigned p = 0; p < config_.threads; p++) {
            Rng rng(config_.seed + p);
            for (std::uint64_t k = 0; k < rows; k++)
                insertTuple(ctx, inst_[0], p, k, rng, nullptr);
        }
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 31 + tid);
        const std::uint64_t rows = initialRows();
        ZipfianGenerator zipf(rows);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            pad(ctx, &zipf);
            if (workload_ == NstoreWorkload::Ycsb)
                ycsbTx(ctx, tid, rng, zipf);
            else
                tpccTx(ctx, tid, rng, zipf, op);
        }
    }

    VerifyReport verify(Runtime &rt) override { return verifyRecovered(rt); }

    alloc::AllocStats
    recoveredHeapStats() const override
    {
        return inst_[0].heap->stats();
    }

    void
    recover(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        Instance &db = inst_[0];
        // Roll back every partition's in-flight transaction, then
        // prune half-inserted (VOLATILE) tuples, then let the heap
        // reclaim.
        for (unsigned p = 0; p < db.partitions; p++)
            rollbackUndo(ctx, db, p);
        for (unsigned p = 0; p < db.partitions; p++) {
            for (auto &slot : partition(ctx, db, p)->index) {
                while (slot != kNullAddr &&
                       db.heap->state(ctx, slot) !=
                           alloc::BlockState::Persistent) {
                    const Tuple *t = ctx.pool().at<Tuple>(slot);
                    ctx.storeField(slot, t->next, DataClass::User);
                    ctx.flush(ctx.pool().offsetOf(&slot), 8);
                    ctx.fence(FenceKind::Ordering);
                }
            }
        }
        db.heap->recover(ctx);
    }

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        VerifyReport rep = report();
        std::string why;
        bool ok = true;
        for (unsigned p = 0; ok && p < inst_[0].partitions; p++)
            ok = checkPartition(rt.ctx(0), inst_[0], p, &why);
        rep.check(ok, "tables-intact", why);
        return rep;
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        // OPTWAL descriptor state: recovery must retire every
        // partition's active undo log (the single pointer write that
        // commits or rolls back the in-flight transaction).
        VerifyReport rep = report();
        for (unsigned p = 0; p < inst_[0].partitions; p++) {
            if (!rep.check(
                    partition(rt.ctx(0), inst_[0], p)->activeLog ==
                        kNullAddr,
                    "undo-retired",
                    "partition " + std::to_string(p) +
                        " still publishes an active undo log"))
                break;
        }
        return rep;
    }

  protected:
    /**
     * Media scrub (WhisperApp::scrubRecovered). Partition headers are
     * all reconstructible words (magic, counters, pointer slots): a
     * zero-filled line gets its magic back, its index slots re-nulled
     * (0 is not kNullAddr and recovery would chase it) and a lost
     * activeLog descriptor retired — the in-flight transaction can no
     * longer roll back, which the tuple checksums then surface under
     * this Degraded marker. Index chains are truncated at tuples with
     * lost lines, and tupleCount is recounted when its word was hit.
     */
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        const Instance &db = inst_[0];
        const Addr undo_end = db.undoLogOff(db.partitions);
        std::vector<LineAddr> part_lines, undo_lines, heap_lines,
            rest;
        for (const LineAddr line : lines) {
            const Addr off = static_cast<Addr>(line) << kCacheLineBits;
            if (off >= db.partsOff && off < db.undoOff)
                part_lines.push_back(line);
            else if (off >= db.undoOff && off < undo_end)
                undo_lines.push_back(line);
            else if (off >= db.heapOff &&
                     off < db.heapOff + db.heap->heapSize())
                heap_lines.push_back(line);
            else
                rest.push_back(line);
        }

        std::vector<bool> recount(db.partitions, false);
        bool undo_lost = false;
        for (const LineAddr line : part_lines) {
            const Addr lo = static_cast<Addr>(line) << kCacheLineBits;
            const unsigned p = static_cast<unsigned>(
                (lo - db.partsOff) / kPartBytes);
            const Addr base = db.partOff(p);
            const Addr hi =
                std::min<Addr>(lo + kCacheLineSize,
                               base + sizeof(Partition));
            for (Addr w = lo; w < hi; w += 8) {
                const Addr rel = w - base;
                if (rel == offsetof(Partition, magic)) {
                    const std::uint64_t magic = Partition::kMagic;
                    ctx.store(w, &magic, 8, DataClass::User);
                } else if (rel == offsetof(Partition, tupleCount)) {
                    recount[p] = true;
                } else if (rel == offsetof(Partition, activeLog)) {
                    const Addr null = kNullAddr;
                    ctx.store(w, &null, 8, DataClass::TxMeta);
                    undo_lost = true;
                } else if (rel == offsetof(Partition, activeSeq)) {
                    // Zero is fine once activeLog is retired.
                } else if (rel >= offsetof(Partition, index)) {
                    const Addr null = kNullAddr;
                    ctx.store(w, &null, 8, DataClass::User);
                }
            }
            if (hi > lo)
                ctx.persist(lo, hi - lo);
        }

        // Undo records matter only inside a published segment; a
        // zero-filled record there stops rollback's walk early and
        // later in-flight updates may persist torn (the checksums
        // report it, covered by the Degraded entry below).
        std::vector<LineAddr> active_lost;
        for (const LineAddr line : undo_lines) {
            const Addr off = static_cast<Addr>(line) << kCacheLineBits;
            const unsigned p = static_cast<unsigned>(
                (off - db.undoOff) / kUndoLogBytes);
            const Addr seg = partition(ctx, db, p)->activeLog;
            if (seg != kNullAddr && off >= seg &&
                off < seg + kUndoSegmentBytes) {
                active_lost.push_back(line);
            }
        }

        const auto node_lost = [&](Addr off, std::size_t n) {
            if (off < db.heapOff + sizeof(alloc::BuddyHeader) ||
                off + n > db.heapOff + db.heap->heapSize())
                return true;
            for (LineAddr l = lineOf(off); l <= lineOf(off + n - 1);
                 l++) {
                if (std::find(heap_lines.begin(), heap_lines.end(),
                              l) != heap_lines.end())
                    return true;
            }
            return false;
        };
        std::uint64_t chains_cut = 0;
        for (unsigned p = 0; p < db.partitions; p++) {
            std::uint64_t reachable = 0;
            for (std::uint64_t b = 0; b < kIndexBuckets; b++) {
                Addr slot = db.partOff(p) + offsetof(Partition, index) +
                            b * sizeof(Addr);
                Addr cur = 0;
                ctx.load(slot, &cur, 8);
                while (cur != kNullAddr) {
                    if (node_lost(cur, sizeof(Tuple))) {
                        const Addr null = kNullAddr;
                        ctx.store(slot, &null, 8, DataClass::User);
                        ctx.persist(slot, 8);
                        chains_cut++;
                        break;
                    }
                    reachable++;
                    const Tuple *t = ctx.pool().at<Tuple>(cur);
                    slot = cur + offsetof(Tuple, next);
                    cur = t->next;
                }
            }
            if (recount[p]) {
                const Addr w =
                    db.partOff(p) + offsetof(Partition, tupleCount);
                ctx.store(w, &reachable, 8, DataClass::User);
                ctx.persist(w, 8);
            }
        }

        if (!part_lines.empty()) {
            rep.degrade(
                "nstore-partition-lost",
                undo_lost
                    ? "partition header repaired; a published undo "
                      "descriptor was lost, so the in-flight "
                      "transaction cannot roll back"
                    : "partition header words repaired on "
                      "zero-filled lines",
                part_lines);
        }
        if (!active_lost.empty()) {
            rep.degrade("nstore-undo-record-lost",
                        "records in a published undo segment "
                        "zero-filled; rollback stops at the first "
                        "lost record",
                        active_lost);
        }
        if (chains_cut > 0) {
            rep.degrade("nstore-chain-lost",
                        std::to_string(chains_cut) +
                            " index chain(s) truncated at "
                            "media-lost tuples",
                        heap_lines);
        }
        lines = std::move(rest);
    }

  private:
    std::uint64_t
    initialRows() const
    {
        return std::max<std::uint64_t>(
            512, std::min<std::uint64_t>(config_.opsPerThread, 16384));
    }

    void
    ycsbTx(pm::PmContext &ctx, unsigned p, Rng &rng,
           const ZipfianGenerator &zipf)
    {
        Instance &db = inst_[0];
        UndoTx tx = beginTx(ctx, db, p);
        // Four YCSB operations per transaction, 80% writes.
        for (int op = 0; op < 4; op++) {
            const std::uint64_t key = zipf.next(rng);
            const Addr off = findTuple(ctx, db, p, key);
            if (off == kNullAddr)
                continue;
            if (rng.chance(0.8)) {
                // A YCSB update rewrites the whole 10-field value.
                updateTuple(ctx, db, p, off, rng, tx, 9);
            } else {
                Tuple t{};
                ctx.load(off, &t, sizeof(t));
                ctx.compute(40);
            }
        }
        commitTx(ctx, db, p, tx);
    }

    void
    tpccTx(pm::PmContext &ctx, unsigned p, Rng &rng,
           const ZipfianGenerator &zipf, std::uint64_t op)
    {
        Instance &db = inst_[0];
        const double pick = rng.nextDouble();
        if (pick < 0.6) {
            // New-order: insert an order tuple plus 5..15 order
            // lines, update 5..15 stock rows.
            UndoTx tx = beginTx(ctx, db, p);
            const std::uint64_t lines = rng.range(5, 15);
            insertTuple(ctx, db, p, 1'000'000 + op * 16, rng, &tx);
            for (std::uint64_t l = 0; l < lines; l++) {
                insertTuple(ctx, db, p, 1'000'000 + op * 16 + 1 + l, rng,
                            &tx);
                const Addr stock = findTuple(ctx, db, p, zipf.next(rng));
                if (stock != kNullAddr)
                    updateTuple(ctx, db, p, stock, rng, tx, 8);
            }
            commitTx(ctx, db, p, tx);
        } else if (pick < 0.85) {
            // Payment: update three hot rows.
            UndoTx tx = beginTx(ctx, db, p);
            for (int i = 0; i < 3; i++) {
                const Addr off = findTuple(ctx, db, p, zipf.next(rng));
                if (off != kNullAddr)
                    updateTuple(ctx, db, p, off, rng, tx, 6);
            }
            commitTx(ctx, db, p, tx);
        } else {
            // Order-status: read-only.
            for (int i = 0; i < 8; i++) {
                const Addr off = findTuple(ctx, db, p, zipf.next(rng));
                if (off != kNullAddr) {
                    Tuple t{};
                    ctx.load(off, &t, sizeof(t));
                }
            }
            ctx.compute(200);
        }
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // N-store is partitioned by design; the workload keeps that shape
    // but gives every thread a fully private one-partition database:
    // partition header, undo log *and* buddy heap over a disjoint pool
    // slice (run() shares one global heap, whose allocation cost
    // depends on cross-thread interleaving and would break digest
    // determinism). Each put/rmw runs as a one-operation OPTWAL
    // transaction: publish an undo segment, journal the old images,
    // update in place, flush, fence, retire the log with one pointer
    // write.

  public:
    void
    setupPartitions(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        wlMap_ = map;
        inst_.clear();
        const PoolSlices slices(config_.poolBytes, map.threads,
                                kPartBytes + kUndoLogBytes + (4u << 20),
                                "nstore");
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            inst_.push_back(
                formatDb(ctx, slices.base(t), slices.bytes, 1));
            Rng rng(config_.seed + t);
            for (std::uint64_t i = 0; i < map.perThread(); i++)
                insertTuple(ctx, inst_[t], 0, map.lo(t) + i, rng,
                            nullptr);
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, &key);
        const Addr off = findTuple(ctx, inst_[tid], 0, key);
        if (off == kNullAddr)
            return false;
        Tuple t{};
        ctx.load(off, &t, sizeof(t));
        ctx.compute(40);
        return true;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        Instance &db = inst_[tid];
        pad(ctx, &key);
        UndoTx tx = beginTx(ctx, db, 0);
        const Addr off = findTuple(ctx, db, 0, key);
        Rng vrng(value ^ key);
        if (off != kNullAddr)
            updateTuple(ctx, db, 0, off, vrng, tx, 9);
        else
            insertTuple(ctx, db, 0, key, vrng, &tx);
        commitTx(ctx, db, 0, tx);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        Instance &db = inst_[tid];
        pad(ctx, &key);
        const Addr off = findTuple(ctx, db, 0, key);
        if (off == kNullAddr) {
            workloadPut(ctx, tid, key, delta);
            return false;
        }
        Tuple t{};
        ctx.load(off, &t, sizeof(t));

        UndoTx tx = beginTx(ctx, db, 0);
        Rng vrng(delta ^ t.seq);
        updateTuple(ctx, db, 0, off, vrng, tx, 3);
        commitTx(ctx, db, 0, tx);
        return true;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, &key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const Addr off = findTuple(ctx, inst_[tid], 0,
                                       wlMap_.scanKey(tid, key, j));
            if (off == kNullAddr)
                continue;
            Tuple t{};
            ctx.load(off, &t, sizeof(t));
            found++;
        }
        return found;
    }

    VerifyReport
    workloadCheck(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (unsigned t = 0; t < inst_.size(); t++) {
            std::string why;
            rep.check(checkPartition(rt.ctx(t), inst_[t], 0, &why),
                      "tables-intact", why);
            rep.check(partition(rt.ctx(t), inst_[t], 0)->activeLog ==
                          kNullAddr,
                      "undo-retired",
                      "workload shard " + std::to_string(t) +
                          " still publishes an active undo log");
        }
        return rep;
    }

  private:
    NstoreWorkload workload_;
    /**
     * The paper run's one partitioned database over the whole pool
     * (setup()), or one single-partition database per workload
     * thread (setupPartitions()).
     */
    std::vector<Instance> inst_;
    core::WorkloadKeymap wlMap_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeYcsbApp(const core::AppConfig &config)
{
    return std::make_unique<NstoreApp>(config, NstoreWorkload::Ycsb);
}

std::unique_ptr<core::WhisperApp>
makeTpccApp(const core::AppConfig &config)
{
    return std::make_unique<NstoreApp>(config, NstoreWorkload::Tpcc);
}

} // namespace whisper::apps
