#include "txlib/mnemosyne.hh"

#include <cstring>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/verify_report.hh"
#include "txlib/elision.hh"

namespace whisper::mne
{

using pm::DataClass;
using pm::FenceKind;

std::uint32_t
foldChecksum(const void *data, std::size_t n)
{
    return crc32(data, n);
}

std::uint32_t
redoCrc(const RedoHeader &hdr, const void *payload, std::size_t n)
{
    RedoHeader h = hdr;
    h.checksum = 0;
    std::uint32_t crc = crc32Update(0, &h, sizeof(h));
    if (n)
        crc = crc32Update(crc, payload, n);
    return crc;
}

MnemosyneHeap::MnemosyneHeap(pm::PmContext &ctx, Addr base,
                             std::size_t size, unsigned max_threads)
    : MnemosyneHeap(base, size, max_threads)
{
    // Format: null every active-segment cell (the per-record
    // sequence tags make segment contents self-describing).
    for (unsigned slot = 0; slot < maxThreads_; slot++) {
        const Addr none = kNullAddr;
        ctx.store(activeCellOff(slot), &none, 8, DataClass::TxMeta);
        ctx.flush(activeCellOff(slot), 8);
    }
    // Null root pointer.
    const Addr null_root = kNullAddr;
    ctx.store(rootOff_, &null_root, sizeof(null_root), DataClass::TxMeta);
    ctx.flush(rootOff_, sizeof(null_root));
    ctx.fence(FenceKind::Durability);
    alloc_ = std::make_unique<alloc::SlabAllocator>(ctx, heapBase_,
                                                    base_ + size_ -
                                                        heapBase_);
}

MnemosyneHeap::MnemosyneHeap(Addr base, std::size_t size,
                             unsigned max_threads)
    : base_(base), size_(size), maxThreads_(max_threads)
{
    panic_if(max_threads == 0, "heap needs at least one log slot");
    segCursor_.assign(maxThreads_, 0);
    // Layout: [active cells][per-thread logs][root][slab heap].
    const std::size_t cells_area = kCacheLineSize * maxThreads_;
    const std::size_t log_area = kLogBytes * maxThreads_;
    panic_if(size_ < cells_area + log_area + (1 << 16),
             "Mnemosyne heap region too small");
    rootOff_ = base_ + cells_area + log_area;
    heapBase_ = rootOff_ + kCacheLineSize;
    if (!alloc_) {
        alloc_ = std::make_unique<alloc::SlabAllocator>(
            heapBase_, base_ + size_ - heapBase_);
    }
}

Addr
MnemosyneHeap::activeCellOff(unsigned slot) const
{
    panic_if(slot >= maxThreads_, "cell slot out of range");
    return base_ + static_cast<Addr>(slot) * kCacheLineSize;
}

Addr
MnemosyneHeap::logBase(unsigned slot) const
{
    panic_if(slot >= maxThreads_, "log slot out of range");
    return base_ + kCacheLineSize * maxThreads_ +
           static_cast<Addr>(slot) * kLogBytes;
}

std::pair<Addr, std::uint64_t>
MnemosyneHeap::acquireLogSegment(unsigned slot)
{
    panic_if(slot >= maxThreads_, "log slot out of range");
    const std::uint64_t seq = ++segCursor_[slot];
    const Addr base = logBase(slot) +
                      static_cast<Addr>(seq % kLogSegments) *
                          segmentBytes();
    return {base, seq};
}

void
MnemosyneHeap::recover(pm::PmContext &ctx)
{
    pm::OriginScope origin(ctx, trace::Origin::MneRecovery);
    for (unsigned slot = 0; slot < maxThreads_; slot++) {
        // Only a published (active) segment can hold an in-flight
        // transaction; everything else was retired by its commit's
        // cell write.
        struct { Addr base; std::uint64_t seq; } cell{};
        ctx.load(activeCellOff(slot), &cell, sizeof(cell));
        const Addr seg_base = cell.base;
        if (seg_base == kNullAddr)
            continue;
        Addr cursor = seg_base;
        const Addr limit = seg_base + segmentBytes();
        bool committed = false;
        std::vector<std::pair<Addr, std::uint32_t>> updates; // hdr offs
        while (cursor + sizeof(RedoHeader) <= limit) {
            RedoHeader hdr{};
            ctx.load(cursor, &hdr, sizeof(hdr));
            if (hdr.magic != RedoHeader::kMagic ||
                hdr.kind == RedoKind::End || hdr.seq != cell.seq) {
                break; // stale record from the segment's previous use
            }
            if (hdr.kind == RedoKind::Commit) {
                // A torn or corrupted commit record never committed.
                committed = redoCrc(hdr, nullptr, 0) == hdr.checksum;
                break;
            }
            // Validate header + payload against the CRC; a torn tail
            // record means the transaction never committed.
            const Addr payload = cursor + sizeof(RedoHeader);
            if (payload + hdr.size > limit ||
                redoCrc(hdr, ctx.pool().at<std::uint8_t>(payload),
                        hdr.size) != hdr.checksum) {
                break;
            }
            updates.emplace_back(cursor, hdr.size);
            cursor = lineBase(payload + hdr.size + kCacheLineSize - 1);
        }

        if (committed) {
            // Replay: the crash may have interrupted the in-place
            // application of the write set.
            for (const auto &[hdr_off, size] : updates) {
                RedoHeader hdr{};
                ctx.load(hdr_off, &hdr, sizeof(hdr));
                std::vector<std::uint8_t> data(size);
                ctx.load(hdr_off + sizeof(RedoHeader), data.data(), size);
                ctx.store(hdr.addr, data.data(), size, DataClass::User);
                ctx.flush(hdr.addr, size);
                ctx.fence(FenceKind::Ordering);
            }
        }
        // Retire the segment either way: clear the cell.
        const Addr none = kNullAddr;
        ctx.store(activeCellOff(slot), &none, 8, DataClass::TxMeta);
        ctx.flush(activeCellOff(slot), 8);
        ctx.fence(FenceKind::Durability);
    }
    alloc_->recover(ctx);
}

bool
MnemosyneHeap::logsQuiescent(pm::PmContext &ctx, std::string *why) const
{
    for (unsigned slot = 0; slot < maxThreads_; slot++) {
        struct { Addr base; std::uint64_t seq; } cell{};
        ctx.load(activeCellOff(slot), &cell, sizeof(cell));
        if (cell.base != kNullAddr) {
            if (why) {
                *why = "Mnemosyne slot " + std::to_string(slot) +
                       " still publishes an active redo segment";
            }
            return false;
        }
    }
    return true;
}

void
MnemosyneHeap::scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines,
                     core::VerifyReport &report)
{
    if (lines.empty())
        return;
    const Addr cells_end = base_ + kCacheLineSize * maxThreads_;
    const Addr logs_end = rootOff_;
    const LineAddr root_line = lineOf(rootOff_);

    std::vector<LineAddr> cell_lost, log_lost, root_lost, rest;
    // Cells first: a re-nulled cell un-publishes its segment, so log
    // lines of the same slot are then dead and claimed silently.
    for (const LineAddr line : lines) {
        const Addr off = static_cast<Addr>(line) << kCacheLineBits;
        if (off >= base_ && off < cells_end) {
            // The zero-filled cell would read as {base=0, seq=0} —
            // a bogus published segment. Re-null it; the in-flight
            // transaction (committed or not) is gone.
            const struct { Addr base; std::uint64_t seq; } none{
                kNullAddr, 0};
            ctx.store(off, &none, sizeof(none), pm::DataClass::TxMeta);
            ctx.persist(off, sizeof(none));
            cell_lost.push_back(line);
        }
    }
    for (const LineAddr line : lines) {
        const Addr off = static_cast<Addr>(line) << kCacheLineBits;
        if (off >= base_ && off < cells_end)
            continue; // handled above
        if (off >= cells_end && off < logs_end) {
            const unsigned slot = static_cast<unsigned>(
                (off - cells_end) / kLogBytes);
            struct { Addr base; std::uint64_t seq; } cell{};
            ctx.load(activeCellOff(slot), &cell, sizeof(cell));
            if (cell.base != kNullAddr && off >= cell.base &&
                off < cell.base + segmentBytes()) {
                // Published segment damaged: the CRC walk in
                // recover() stops at the zeroed record, so the
                // transaction behind it (even a committed one whose
                // marker sits past the hole) is discarded.
                log_lost.push_back(line);
            }
            // Unpublished log content is dead either way: claimed.
        } else if (line == root_line) {
            root_lost.push_back(line);
        } else {
            rest.push_back(line);
        }
    }

    if (!cell_lost.empty()) {
        report.degrade("mne-active-cell-lost",
                       std::to_string(cell_lost.size()) +
                           " active-log cell(s) lost; in-flight "
                           "transactions discarded",
                       cell_lost);
    }
    if (!log_lost.empty()) {
        report.degrade("mne-log-record-lost",
                       std::to_string(log_lost.size()) +
                           " published redo-log line(s) lost; the "
                           "owning transaction is discarded",
                       log_lost);
    }
    if (!root_lost.empty()) {
        report.degrade("mne-root-lost",
                       "heap root pointer lost to media faults",
                       root_lost);
    }
    lines = std::move(rest);
}

Addr
MnemosyneHeap::pmalloc(pm::PmContext &ctx, std::size_t n)
{
    return alloc_->alloc(ctx, n);
}

void
MnemosyneHeap::pfree(pm::PmContext &ctx, Addr payload)
{
    alloc_->free(ctx, payload);
}

Transaction::Transaction(MnemosyneHeap &heap, pm::PmContext &ctx)
    : heap_(heap), ctx_(ctx), state_(State::Active)
{
    id_ = ctx_.txBegin();
    const unsigned slot = ctx_.tid() % heap_.maxThreads();
    std::tie(logStart_, seq_) = heap_.acquireLogSegment(slot);
    logHead_ = logStart_;
    // Publish {segment, sequence}. One small transaction-metadata
    // epoch — the same cell every transaction, one of the paper's
    // self-dependency sources ("transaction metadata"). The sequence
    // makes stale records in the reused segment unambiguous, so no
    // re-termination is needed.
    const struct { Addr base; std::uint64_t seq; } cell{logStart_,
                                                        seq_};
    pm::OriginScope origin(ctx_, trace::Origin::MneCellPublish);
    ctx_.store(heap_.activeCellOff(slot), &cell, sizeof(cell),
               DataClass::TxMeta);
    ctx_.flush(heap_.activeCellOff(slot), sizeof(cell));
    ctx_.fence(FenceKind::Ordering);
}

Transaction::~Transaction()
{
    // A crash point unwinds through active transactions the way a
    // power cut kills a process mid-transaction: the destructor never
    // really runs, and recovery owns the published log segment.
    if (state_ == State::Active && ctx_.crashInjected())
        return;
    panic_if(state_ == State::Active,
             "Transaction destroyed without commit/abort");
}

void
Transaction::appendRedo(RedoKind kind, Addr addr, const void *payload,
                        std::uint32_t size, pm::FenceKind fence)
{
    const Addr limit = logStart_ + MnemosyneHeap::segmentBytes();
    panic_if(logHead_ + sizeof(RedoHeader) + size +
                     sizeof(RedoHeader) > limit,
             "Mnemosyne redo log overflow");
    RedoHeader hdr{RedoHeader::kMagic, kind, addr, size, 0, seq_};
    hdr.checksum = redoCrc(hdr, payload, size);
    // Log writes bypass the cache (log data is only read on recovery)
    // and each record is an epoch of its own: NTI ... sfence. This is
    // the dominant source of Mnemosyne's 5-50 epochs per transaction.
    pm::OriginScope origin(ctx_, trace::Origin::MneLogAppend);
    ctx_.ntStore(logHead_, &hdr, sizeof(hdr), DataClass::Log);
    if (size) {
        ctx_.ntStore(logHead_ + sizeof(RedoHeader), payload, size,
                     DataClass::Log);
    }
    // Records are cache-line aligned so consecutive appends never
    // share a line.
    logHead_ = lineBase(logHead_ + sizeof(RedoHeader) + size +
                        kCacheLineSize - 1);
    ctx_.fence(fence);
}

void
Transaction::update(Addr off, const void *src, std::size_t n,
                    pm::DataClass cls)
{
    panic_if(state_ != State::Active, "update on a finished transaction");
    appendRedo(RedoKind::Update, off, src, static_cast<std::uint32_t>(n));
    StagedWrite w;
    w.off = off;
    w.bytes.assign(static_cast<const std::uint8_t *>(src),
                   static_cast<const std::uint8_t *>(src) + n);
    w.cls = cls;
    ctx_.vStore(w.bytes.data(), n); // staging buffer lives in DRAM
    writes_.push_back(std::move(w));
}

void
Transaction::read(Addr off, void *dst, std::size_t n)
{
    ctx_.load(off, dst, n);
    // Overlay staged writes, oldest first so the newest wins.
    for (const auto &w : writes_) {
        const Addr w_end = w.off + w.bytes.size();
        const Addr r_end = off + n;
        if (w.off >= r_end || w_end <= off)
            continue;
        const Addr lo = std::max(w.off, off);
        const Addr hi = std::min(w_end, r_end);
        std::memcpy(static_cast<std::uint8_t *>(dst) + (lo - off),
                    w.bytes.data() + (lo - w.off), hi - lo);
    }
}

Addr
Transaction::pmalloc(std::size_t n)
{
    const Addr payload = heap_.pmalloc(ctx_, n);
    if (payload != kNullAddr)
        allocs_.push_back(payload);
    return payload;
}

void
Transaction::pfree(Addr payload)
{
    deferredFrees_.push_back(payload);
}

void
Transaction::commit()
{
    panic_if(state_ != State::Active, "double commit");

    const bool elide =
        txlib::elisionEnabled(ctx_, txlib::kElideMneCommitApply);

    // Commit record makes the transaction durable: after this fence a
    // crash replays the log. Under elision an empty write set takes
    // its durability point here instead of paying a separate fence
    // over an empty epoch (the optimizer's coalescible pair (d)).
    appendRedo(RedoKind::Commit, 0, nullptr, 0,
               elide && writes_.empty() ? pm::FenceKind::Durability
                                        : pm::FenceKind::Ordering);

    pm::OriginScope origin(ctx_, trace::Origin::MneCommitApply);
    if (elide) {
        // Coalesced application: the per-write ordering fences are the
        // optimizer's category (c) — consecutive apply epochs touch
        // the lines of unrelated staged writes. Dropping them is safe
        // because the redo log and commit record are already durable
        // and replay re-applies the whole write set idempotently; one
        // durability fence at the end is the transaction's commit
        // point.
        for (const StagedWrite &w : writes_)
            ctx_.store(w.off, w.bytes.data(), w.bytes.size(), w.cls);
        for (const StagedWrite &w : writes_)
            ctx_.flush(w.off, w.bytes.size());
        if (!writes_.empty())
            ctx_.fence(pm::FenceKind::Durability);
    } else {
        // Apply the write set in place with cacheable stores. Each log
        // entry is processed in its own epoch (the paper's observation
        // about Mnemosyne's log processing), with the final fence as
        // the transaction's durability point.
        for (std::size_t i = 0; i < writes_.size(); i++) {
            const StagedWrite &w = writes_[i];
            ctx_.store(w.off, w.bytes.data(), w.bytes.size(), w.cls);
            ctx_.flush(w.off, w.bytes.size());
            ctx_.fence(i + 1 < writes_.size()
                           ? pm::FenceKind::Ordering
                           : pm::FenceKind::Durability);
        }
        if (writes_.empty())
            ctx_.fence(pm::FenceKind::Durability);
    }

    truncateLog();

    for (const Addr payload : deferredFrees_)
        heap_.pfree(ctx_, payload);

    state_ = State::Committed;
    ctx_.txEnd(id_);
}

void
Transaction::abort()
{
    panic_if(state_ != State::Active, "abort on a finished transaction");
    truncateLog();
    // Free transactional allocations; Mnemosyne can leak these on a
    // crash, but a clean abort returns them.
    for (const Addr payload : allocs_)
        heap_.pfree(ctx_, payload);
    state_ = State::Aborted;
    ctx_.txAbort(id_);
}

void
Transaction::truncateLog()
{
    // Retire the whole segment with one cell write (Mnemosyne
    // advances its log head rather than rewriting entries).
    pm::OriginScope origin(ctx_, trace::Origin::MneTruncate);
    const unsigned slot = ctx_.tid() % heap_.maxThreads();
    const Addr none = kNullAddr;
    ctx_.storeField(*ctx_.pool().at<Addr>(heap_.activeCellOff(slot)),
                    none, DataClass::TxMeta);
    ctx_.flush(heap_.activeCellOff(slot), 8);
    ctx_.fence(FenceKind::Ordering);
    logHead_ = logStart_;
}

} // namespace whisper::mne
