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
        // Layout: [partition headers][undo logs][global buddy heap].
        const std::size_t part_bytes =
            lineBase(sizeof(Partition) + kCacheLineSize);
        partitionBytes_ = part_bytes;
        partitionsOff_ = 0;
        undoOff_ = partitionsOff_ +
                   static_cast<Addr>(config_.threads) * part_bytes;
        heapOff_ = lineBase(
            undoOff_ + static_cast<Addr>(config_.threads) *
                           kUndoLogBytes + kCacheLineSize);
        heap_ = std::make_unique<alloc::BuddyAllocator>(
            ctx, heapOff_, config_.poolBytes - heapOff_);

        for (unsigned p = 0; p < config_.threads; p++) {
            Partition hdr{};
            hdr.magic = Partition::kMagic;
            hdr.activeLog = kNullAddr;
            for (auto &slot : hdr.index)
                slot = kNullAddr;
            ctx.store(partOff(p), &hdr, sizeof(hdr), DataClass::User);
            ctx.flush(partOff(p), sizeof(hdr));
            UndoRec end{UndoRec::kMagic, 0, 0, 0, 0, 0};
            ctx.store(undoLogOff(p), &end, sizeof(end),
                      DataClass::Log);
            ctx.flush(undoLogOff(p), sizeof(end));
        }
        segCursor_.assign(config_.threads, 0);
        txSeq_.assign(config_.threads, 1);
        ctx.fence(FenceKind::Durability);

        // Load phase: each partition gets its initial tuples.
        const std::uint64_t rows = initialRows();
        for (unsigned p = 0; p < config_.threads; p++) {
            pm::PmContext &pctx = rt.ctx(0);
            Rng rng(config_.seed + p);
            for (std::uint64_t k = 0; k < rows; k++)
                insertTuple(pctx, partRef(p), k, rng, nullptr);
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
            // Query parsing, plan caching, client buffers: N-store
            // YCSB is ~8.7% PM accesses in the paper's Figure 6.
            ctx.vBurst(&zipf, 1 << 16, 1000, 420);
            ctx.compute(2500);
            if (workload_ == NstoreWorkload::Ycsb)
                ycsbTx(ctx, tid, rng, zipf);
            else
                tpccTx(ctx, tid, rng, zipf, op);
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        std::string why;
        rep.check(checkAll(rt, &why), "tables-intact", why);
        return rep;
    }

    void
    recover(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        // Roll back every partition's in-flight transaction, then
        // prune half-inserted (VOLATILE) tuples, then let the heap
        // reclaim.
        for (unsigned p = 0; p < config_.threads; p++)
            rollbackUndo(ctx, partRef(p));
        for (unsigned p = 0; p < config_.threads; p++) {
            Partition *part = partition(ctx, p);
            for (auto &slot : part->index) {
                while (slot != kNullAddr &&
                       heap_->state(ctx, slot) !=
                           alloc::BlockState::Persistent) {
                    const Tuple *t = ctx.pool().at<Tuple>(slot);
                    ctx.storeField(slot, t->next, DataClass::User);
                    ctx.flush(ctx.pool().offsetOf(&slot), 8);
                    ctx.fence(FenceKind::Ordering);
                }
            }
        }
        heap_->recover(ctx);
    }

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        VerifyReport rep = report();
        std::string why;
        rep.check(checkAll(rt, &why), "tables-intact", why);
        return rep;
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        // OPTWAL descriptor state: recovery must retire every
        // partition's active undo log (the single pointer write that
        // commits or rolls back the in-flight transaction).
        pm::PmContext &ctx = rt.ctx(0);
        VerifyReport rep = report();
        for (unsigned p = 0; p < config_.threads; p++) {
            const Partition *part = partition(ctx, p);
            if (!rep.check(part->activeLog == kNullAddr,
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
        const Addr undo_end = undoOff_ +
                              static_cast<Addr>(config_.threads) *
                                  kUndoLogBytes;
        std::vector<LineAddr> part_lines, undo_lines, heap_lines,
            rest;
        for (const LineAddr line : lines) {
            const Addr off = static_cast<Addr>(line) << kCacheLineBits;
            if (off >= partitionsOff_ && off < undoOff_)
                part_lines.push_back(line);
            else if (off >= undoOff_ && off < undo_end)
                undo_lines.push_back(line);
            else if (off >= heapOff_ &&
                     off < heapOff_ + heap_->heapSize())
                heap_lines.push_back(line);
            else
                rest.push_back(line);
        }

        std::vector<bool> recount(config_.threads, false);
        bool undo_lost = false;
        for (const LineAddr line : part_lines) {
            const Addr lo = static_cast<Addr>(line) << kCacheLineBits;
            const unsigned p = static_cast<unsigned>(
                (lo - partitionsOff_) / partitionBytes_);
            const Addr base = partOff(p);
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
                (off - undoOff_) / kUndoLogBytes);
            const Addr seg = partition(ctx, p)->activeLog;
            if (seg != kNullAddr && off >= seg &&
                off < seg + kUndoSegmentBytes) {
                active_lost.push_back(line);
            }
        }

        const auto node_lost = [&](Addr off, std::size_t n) {
            if (off < heapOff_ + sizeof(alloc::BuddyHeader) ||
                off + n > heapOff_ + heap_->heapSize())
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
        for (unsigned p = 0; p < config_.threads; p++) {
            std::uint64_t reachable = 0;
            for (std::uint64_t b = 0; b < kIndexBuckets; b++) {
                Addr slot = partOff(p) + offsetof(Partition, index) +
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
                    partOff(p) + offsetof(Partition, tupleCount);
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

    Addr
    partOff(unsigned p) const
    {
        return partitionsOff_ + static_cast<Addr>(p) * partitionBytes_;
    }

    Addr
    undoLogOff(unsigned p) const
    {
        return undoOff_ + static_cast<Addr>(p) * kUndoLogBytes;
    }

    /**
     * Everything an OPTWAL partition operation needs: the header and
     * undo-log offsets, the backing allocator and the volatile per-
     * partition cursors. The run path wires these to the global layout
     * via partRef(); workload shards supply fully private instances.
     */
    struct PartRef
    {
        Addr part;
        Addr undo;
        alloc::BuddyAllocator *heap;
        std::uint32_t *segCursor;
        std::uint64_t *txSeq;
    };

    PartRef
    partRef(unsigned p)
    {
        return {partOff(p), undoLogOff(p), heap_.get(),
                &segCursor_[p], &txSeq_[p]};
    }

    /** Rotating log segment for this partition's next transaction. */
    Addr
    acquireUndoSegment(const PartRef &pr)
    {
        const unsigned seg = (*pr.segCursor)++ % kUndoSegments;
        return pr.undo + static_cast<Addr>(seg) * kUndoSegmentBytes;
    }

    Partition *
    partition(pm::PmContext &ctx, unsigned p)
    {
        return ctx.pool().at<Partition>(partOff(p));
    }

    Partition *
    partitionAt(pm::PmContext &ctx, const PartRef &pr)
    {
        return ctx.pool().at<Partition>(pr.part);
    }

    /** @{ \name OPTWAL undo logging (per partition) */

    void
    undoAppend(pm::PmContext &ctx, const PartRef &pr, Addr &head,
               Addr addr, std::uint32_t size, std::uint64_t seq)
    {
        const Addr seg_base =
            pr.undo +
            (head - pr.undo) / kUndoSegmentBytes * kUndoSegmentBytes;
        panic_if(head + sizeof(UndoRec) + size >
                         seg_base + kUndoSegmentBytes,
                 "OPTWAL undo log overflow");
        std::vector<std::uint8_t> old(size);
        ctx.load(addr, old.data(), size);
        UndoRec rec{UndoRec::kMagic, size, addr,
                    foldChecksum(old.data(), size), 0, seq};
        ctx.store(head, &rec, sizeof(rec), DataClass::Log);
        ctx.store(head + sizeof(rec), old.data(), size, DataClass::Log);
        ctx.flush(head, sizeof(rec) + size);
        // Records are cache-line aligned (as PMFS-era logs are), so
        // consecutive appends never share a line.
        head = lineBase(head + sizeof(rec) + size + kCacheLineSize - 1);
        ctx.fence(FenceKind::Ordering);
    }

    /** Publish the in-flight transaction's log segment + sequence. */
    std::uint64_t
    undoActivate(pm::PmContext &ctx, const PartRef &pr, Addr seg_base)
    {
        Partition *part = partitionAt(ctx, pr);
        const std::uint64_t seq = (*pr.txSeq)++;
        const struct { Addr log; std::uint64_t seq; } cell{seg_base,
                                                           seq};
        ctx.store(ctx.pool().offsetOf(&part->activeLog), &cell,
                  sizeof(cell), DataClass::TxMeta);
        ctx.flush(ctx.pool().offsetOf(&part->activeLog), sizeof(cell));
        ctx.fence(FenceKind::Ordering);
        return seq;
    }

    /** Retire the whole log with one pointer write (OPTWAL). */
    void
    undoRetire(pm::PmContext &ctx, const PartRef &pr)
    {
        Partition *part = partitionAt(ctx, pr);
        const Addr none = kNullAddr;
        ctx.storeField(part->activeLog, none, DataClass::TxMeta);
        ctx.flush(ctx.pool().offsetOf(&part->activeLog), 8);
        ctx.fence(FenceKind::Ordering);
    }

    void
    rollbackUndo(pm::PmContext &ctx, const PartRef &pr)
    {
        // Only the published segment (if any) is live, and only
        // records tagged with the published sequence belong to it.
        Partition *part = partitionAt(ctx, pr);
        const Addr seg_base = part->activeLog;
        const std::uint64_t seq = part->activeSeq;
        if (seg_base == kNullAddr)
            return;
        struct Rec { Addr addr; std::uint32_t size; Addr payload; };
        std::vector<Rec> recs;
        {
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
        }
        for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
            std::vector<std::uint8_t> old(it->size);
            ctx.load(it->payload, old.data(), it->size);
            ctx.store(it->addr, old.data(), it->size, DataClass::User);
            ctx.flush(it->addr, it->size);
            ctx.fence(FenceKind::Ordering);
        }
        undoRetire(ctx, pr);
        ctx.fence(FenceKind::Durability);
    }

    /** @} */

    Addr
    findTuple(pm::PmContext &ctx, const PartRef &pr, std::uint64_t key)
    {
        Partition *part = partitionAt(ctx, pr);
        Addr cur = part->index[hashKey(key) % kIndexBuckets];
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
     * Insert a fresh tuple. When @p undo_head is non-null the insert
     * runs inside a transaction (index link journaled); during the
     * load phase it is null and only the allocator's protocol runs.
     */
    Addr
    insertTuple(pm::PmContext &ctx, const PartRef &pr,
                std::uint64_t key, Rng &rng, Addr *undo_head,
                std::uint64_t seq = 0)
    {
        const Addr off = pr.heap->alloc(ctx, sizeof(Tuple));
        panic_if(off == kNullAddr, "nstore heap exhausted");
        Partition *part = partitionAt(ctx, pr);
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

        if (undo_head) {
            undoAppend(ctx, pr, *undo_head,
                       ctx.pool().offsetOf(&slot), 8, seq);
        }
        ctx.storeField(slot, off, DataClass::User);
        ctx.flush(ctx.pool().offsetOf(&slot), 8);
        ctx.fence(FenceKind::Ordering);
        pr.heap->setState(ctx, off, alloc::BlockState::Persistent);

        const std::uint64_t n = ctx.loadField(part->tupleCount) + 1;
        if (undo_head) {
            undoAppend(ctx, pr, *undo_head,
                       ctx.pool().offsetOf(&part->tupleCount), 8,
                       seq);
        }
        ctx.storeField(part->tupleCount, n, DataClass::User);
        ctx.flush(ctx.pool().offsetOf(&part->tupleCount), 8);
        return off;
    }

    /**
     * In-place update of @p cols columns under the undo log. N-store
     * logs each attribute mutation separately (set_varchar in the
     * paper's Figure 2 is per-column), so an update of several
     * columns fragments into that many undo/data epoch pairs — the
     * alternating-epoch pattern the paper attributes to undo logging.
     */
    void
    updateTuple(pm::PmContext &ctx, const PartRef &pr, Addr off,
                Rng &rng, Addr &undo_head, std::uint64_t seq,
                unsigned cols,
                std::vector<std::pair<Addr, std::uint32_t>> &dirty)
    {
        Tuple *t = ctx.pool().at<Tuple>(off);
        for (unsigned c = 0; c < cols; c++) {
            const std::uint64_t field =
                rng.next(kTupleValueBytes / 10);
            const Addr field_off =
                off + offsetof(Tuple, value) + field * 10;
            undoAppend(ctx, pr, undo_head, field_off, 10, seq);
            std::uint8_t bytes[10];
            for (auto &b : bytes)
                b = static_cast<std::uint8_t>(rng());
            ctx.store(field_off, bytes, sizeof(bytes),
                      DataClass::User);
            dirty.emplace_back(field_off, 10);
        }
        // Header (seq + checksum) under one more record.
        undoAppend(ctx, pr, undo_head, off + offsetof(Tuple, seq), 16,
                   seq);
        const std::uint64_t tuple_seq = t->seq + 1;
        ctx.storeField(t->seq, tuple_seq, DataClass::User);
        const std::uint32_t sum = tupleChecksum(*t);
        ctx.storeField(t->checksum, sum, DataClass::User);
        dirty.emplace_back(off + offsetof(Tuple, seq), 16);
    }

    void
    ycsbTx(pm::PmContext &ctx, unsigned p, Rng &rng,
           const ZipfianGenerator &zipf)
    {
        const PartRef pr = partRef(p);
        const TxId tx = ctx.txBegin();
        const Addr undo_seg = acquireUndoSegment(pr);
        const std::uint64_t undo_seq = undoActivate(ctx, pr, undo_seg);
        Addr undo_head = undo_seg;
        std::vector<std::pair<Addr, std::uint32_t>> dirty;

        // Four YCSB operations per transaction, 80% writes.
        for (int op = 0; op < 4; op++) {
            const std::uint64_t key = zipf.next(rng);
            const Addr off = findTuple(ctx, pr, key);
            if (off == kNullAddr)
                continue;
            if (rng.chance(0.8)) {
                // A YCSB update rewrites the whole 10-field value.
                updateTuple(ctx, pr, off, rng, undo_head, undo_seq, 9,
                            dirty);
            } else {
                Tuple t{};
                ctx.load(off, &t, sizeof(t));
                ctx.compute(40);
            }
        }

        // Commit: flush updated tuples, fence once, clear the log.
        for (const auto &[off, n] : dirty)
            ctx.flush(off, n);
        ctx.fence(FenceKind::Durability);
        undoRetire(ctx, pr);
        ctx.txEnd(tx);
    }

    void
    tpccTx(pm::PmContext &ctx, unsigned p, Rng &rng,
           const ZipfianGenerator &zipf, std::uint64_t op)
    {
        const PartRef pr = partRef(p);
        const double pick = rng.nextDouble();
        if (pick < 0.6) {
            // New-order: insert an order tuple plus 5..15 order
            // lines, update 5..15 stock rows.
            const TxId tx = ctx.txBegin();
            const Addr undo_seg = acquireUndoSegment(pr);
            const std::uint64_t undo_seq =
                undoActivate(ctx, pr, undo_seg);
            Addr undo_head = undo_seg;
            std::vector<std::pair<Addr, std::uint32_t>> dirty;

            const std::uint64_t lines = rng.range(5, 15);
            insertTuple(ctx, pr, 1'000'000 + op * 16, rng, &undo_head,
                        undo_seq);
            for (std::uint64_t l = 0; l < lines; l++) {
                insertTuple(ctx, pr, 1'000'000 + op * 16 + 1 + l, rng,
                            &undo_head, undo_seq);
                const Addr stock = findTuple(ctx, pr, zipf.next(rng));
                if (stock != kNullAddr) {
                    updateTuple(ctx, pr, stock, rng, undo_head,
                                undo_seq, 8, dirty);
                }
            }
            for (const auto &[off, n] : dirty)
                ctx.flush(off, n);
            ctx.fence(FenceKind::Durability);
            undoRetire(ctx, pr);
            ctx.txEnd(tx);
        } else if (pick < 0.85) {
            // Payment: update three hot rows.
            const TxId tx = ctx.txBegin();
            const Addr undo_seg = acquireUndoSegment(pr);
            const std::uint64_t undo_seq =
                undoActivate(ctx, pr, undo_seg);
            Addr undo_head = undo_seg;
            std::vector<std::pair<Addr, std::uint32_t>> dirty;
            for (int i = 0; i < 3; i++) {
                const Addr off = findTuple(ctx, pr, zipf.next(rng));
                if (off != kNullAddr)
                    updateTuple(ctx, pr, off, rng, undo_head,
                                undo_seq, 6, dirty);
            }
            for (const auto &[off, n] : dirty)
                ctx.flush(off, n);
            ctx.fence(FenceKind::Durability);
            undoRetire(ctx, pr);
            ctx.txEnd(tx);
        } else {
            // Order-status: read-only.
            for (int i = 0; i < 8; i++) {
                const Addr off = findTuple(ctx, pr, zipf.next(rng));
                if (off != kNullAddr) {
                    Tuple t{};
                    ctx.load(off, &t, sizeof(t));
                }
            }
            ctx.compute(200);
        }
    }

    bool
    checkAll(Runtime &rt, std::string *why)
    {
        pm::PmContext &ctx = rt.ctx(0);
        for (unsigned p = 0; p < config_.threads; p++) {
            if (!checkPartitionAt(ctx, partOff(p), why))
                return false;
        }
        return true;
    }

    bool
    checkPartitionAt(pm::PmContext &ctx, Addr part_off,
                     std::string *why)
    {
        Partition *part = ctx.pool().at<Partition>(part_off);
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

    // ---- Unified workload driver surface ------------------------------
    //
    // N-store is partitioned by design; the workload keeps that shape
    // but gives every thread a fully private shard: partition header,
    // undo log *and* buddy heap over a disjoint pool slice (run()
    // shares one global heap, whose allocation cost depends on cross-
    // thread interleaving and would break digest determinism). Each
    // put/rmw runs as a one-operation OPTWAL transaction: publish an
    // undo segment, journal the old images, update in place, flush,
    // fence, retire the log with one pointer write.

    /** Query parsing / plan caching, matching run()'s per-op shape. */
    void
    wlPad(pm::PmContext &ctx, std::uint64_t key)
    {
        ctx.vBurst(&key, 1 << 16, 1000, 420);
        ctx.compute(2500);
    }

    PartRef
    wlRef(ThreadId tid)
    {
        WlShard &sh = wlShards_[tid];
        return {sh.part, sh.undo, sh.heap.get(), &sh.segCursor,
                &sh.txSeq};
    }

  public:
    bool supportsWorkload() const override { return true; }

    void
    workloadSetup(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        wlMap_ = map;
        wlShards_.clear();
        wlShards_.resize(map.threads);
        const Addr region = lineBase(config_.poolBytes / map.threads);
        const Addr part_bytes =
            lineBase(sizeof(Partition) + kCacheLineSize);
        panic_if(region <=
                     part_bytes + kUndoLogBytes + (4u << 20),
                 "nstore workload: pool too small for %u shards",
                 map.threads);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            WlShard &sh = wlShards_[t];
            sh.part = static_cast<Addr>(t) * region;
            sh.undo = sh.part + part_bytes;
            const Addr heap_off =
                lineBase(sh.undo + kUndoLogBytes + kCacheLineSize);
            sh.heap = std::make_unique<alloc::BuddyAllocator>(
                ctx, heap_off, sh.part + region - heap_off);

            Partition hdr{};
            hdr.magic = Partition::kMagic;
            hdr.activeLog = kNullAddr;
            for (auto &slot : hdr.index)
                slot = kNullAddr;
            ctx.store(sh.part, &hdr, sizeof(hdr), DataClass::User);
            ctx.flush(sh.part, sizeof(hdr));
            UndoRec end{UndoRec::kMagic, 0, 0, 0, 0, 0};
            ctx.store(sh.undo, &end, sizeof(end), DataClass::Log);
            ctx.flush(sh.undo, sizeof(end));
            ctx.fence(FenceKind::Durability);

            const PartRef pr = wlRef(t);
            Rng rng(config_.seed + t);
            for (std::uint64_t i = 0; i < map.perThread(); i++)
                insertTuple(ctx, pr, map.lo(t) + i, rng, nullptr);
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        wlPad(ctx, key);
        const Addr off = findTuple(ctx, wlRef(tid), key);
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
        wlPad(ctx, key);
        const PartRef pr = wlRef(tid);
        const TxId tx = ctx.txBegin();
        const Addr undo_seg = acquireUndoSegment(pr);
        const std::uint64_t undo_seq = undoActivate(ctx, pr, undo_seg);
        Addr undo_head = undo_seg;
        std::vector<std::pair<Addr, std::uint32_t>> dirty;

        const Addr off = findTuple(ctx, pr, key);
        Rng vrng(value ^ key);
        if (off != kNullAddr)
            updateTuple(ctx, pr, off, vrng, undo_head, undo_seq, 9,
                        dirty);
        else
            insertTuple(ctx, pr, key, vrng, &undo_head, undo_seq);

        for (const auto &[doff, n] : dirty)
            ctx.flush(doff, n);
        ctx.fence(FenceKind::Durability);
        undoRetire(ctx, pr);
        ctx.txEnd(tx);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        wlPad(ctx, key);
        const PartRef pr = wlRef(tid);
        const Addr off = findTuple(ctx, pr, key);
        if (off == kNullAddr) {
            workloadPut(ctx, tid, key, delta);
            return false;
        }
        Tuple t{};
        ctx.load(off, &t, sizeof(t));

        const TxId tx = ctx.txBegin();
        const Addr undo_seg = acquireUndoSegment(pr);
        const std::uint64_t undo_seq = undoActivate(ctx, pr, undo_seg);
        Addr undo_head = undo_seg;
        std::vector<std::pair<Addr, std::uint32_t>> dirty;
        Rng vrng(delta ^ t.seq);
        updateTuple(ctx, pr, off, vrng, undo_head, undo_seq, 3, dirty);
        for (const auto &[doff, n] : dirty)
            ctx.flush(doff, n);
        ctx.fence(FenceKind::Durability);
        undoRetire(ctx, pr);
        ctx.txEnd(tx);
        return true;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        wlPad(ctx, key);
        const PartRef pr = wlRef(tid);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const Addr off =
                findTuple(ctx, pr, wlMap_.scanKey(tid, key, j));
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
        for (unsigned t = 0; t < wlMap_.threads; t++) {
            std::string why;
            rep.check(checkPartitionAt(rt.ctx(t), wlShards_[t].part,
                                       &why),
                      "tables-intact", why);
            rep.check(ctx_activeLogRetired(rt.ctx(t), wlShards_[t].part),
                      "undo-retired", "workload shard " +
                          std::to_string(t) +
                          " still publishes an active undo log");
        }
        return rep;
    }

  private:
    bool
    ctx_activeLogRetired(pm::PmContext &ctx, Addr part_off)
    {
        return ctx.pool().at<Partition>(part_off)->activeLog ==
               kNullAddr;
    }

    struct WlShard
    {
        Addr part = 0;
        Addr undo = 0;
        std::uint32_t segCursor = 0;
        std::uint64_t txSeq = 1;
        std::unique_ptr<alloc::BuddyAllocator> heap;
    };

    NstoreWorkload workload_;
    Addr partitionsOff_ = 0;
    std::size_t partitionBytes_ = 0;
    Addr undoOff_ = 0;
    Addr heapOff_ = 0;
    std::vector<std::uint32_t> segCursor_;
    std::vector<std::uint64_t> txSeq_;
    std::unique_ptr<alloc::BuddyAllocator> heap_;
    core::WorkloadKeymap wlMap_;
    std::vector<WlShard> wlShards_;
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
