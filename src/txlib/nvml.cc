#include "txlib/nvml.hh"

#include <algorithm>
#include <cstring>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/verify_report.hh"
#include "txlib/elision.hh"

namespace whisper::nvml
{

using pm::DataClass;
using pm::FenceKind;

namespace
{

/** CRC32 of @p hdr (checksum zeroed) extended over the payload. */
std::uint32_t
undoCrc(const UndoHeader &hdr, const void *payload, std::size_t n)
{
    UndoHeader h = hdr;
    h.checksum = 0;
    std::uint32_t crc = crc32Update(0, &h, sizeof(h));
    if (n)
        crc = crc32Update(crc, payload, n);
    return crc;
}

/** Terminating sentinel record, CRC-stamped like any other. */
UndoHeader
makeEndRecord()
{
    UndoHeader end{UndoHeader::kMagic, UndoKind::End, 0, 0, 0};
    end.checksum = undoCrc(end, nullptr, 0);
    return end;
}

const UndoHeader kEndRecord = makeEndRecord();

} // namespace

NvmlPool::NvmlPool(pm::PmContext &ctx, Addr base, std::size_t size,
                   unsigned max_threads)
    : NvmlPool(base, size, max_threads)
{
    // Format: every tx descriptor NONE, every log terminated, null
    // root, then a fresh allocator (which formats its own redo log).
    for (unsigned slot = 0; slot < maxThreads_; slot++) {
        const auto none = static_cast<std::uint64_t>(TxState::None);
        ctx.store(stateOff(slot), &none, 8, DataClass::TxMeta);
        ctx.flush(stateOff(slot), 8);
        for (unsigned seg = 0; seg < kLogSegments; seg++) {
            const Addr seg_base =
                logBase(slot) + seg * segmentBytes();
            ctx.store(seg_base, &kEndRecord, sizeof(kEndRecord),
                      DataClass::Log);
            ctx.flush(seg_base, sizeof(kEndRecord));
        }
    }
    const Addr null_root = kNullAddr;
    ctx.store(rootOff_, &null_root, 8, DataClass::TxMeta);
    ctx.flush(rootOff_, 8);
    ctx.fence(FenceKind::Durability);

    const Addr alloc_log = heapBase_;
    const Addr slab_base = heapBase_ + alloc::NvmlAllocator::logBytes();
    alloc_ = std::make_unique<alloc::NvmlAllocator>(
        ctx, slab_base, base_ + size_ - slab_base, alloc_log);
}

NvmlPool::NvmlPool(Addr base, std::size_t size, unsigned max_threads)
    : base_(base), size_(size), maxThreads_(max_threads)
{
    panic_if(max_threads == 0, "pool needs at least one log slot");
    segCursor_.assign(maxThreads_, 0);
    // Layout: [tx states][per-thread logs][root][allocator log][slabs]
    const std::size_t state_area = kCacheLineSize * maxThreads_;
    const std::size_t log_area = kLogBytes * maxThreads_;
    panic_if(size_ < state_area + log_area + (1 << 16),
             "NVML pool region too small");
    rootOff_ = base_ + state_area + log_area;
    heapBase_ = rootOff_ + kCacheLineSize;
    if (!alloc_) {
        const Addr alloc_log = heapBase_;
        const Addr slab_base = heapBase_ +
                               alloc::NvmlAllocator::logBytes();
        alloc_ = std::make_unique<alloc::NvmlAllocator>(
            slab_base, base_ + size_ - slab_base, alloc_log);
    }
}

Addr
NvmlPool::stateOff(unsigned slot) const
{
    panic_if(slot >= maxThreads_, "tx slot out of range");
    return base_ + static_cast<Addr>(slot) * kCacheLineSize;
}

Addr
NvmlPool::logBase(unsigned slot) const
{
    panic_if(slot >= maxThreads_, "log slot out of range");
    return base_ + kCacheLineSize * maxThreads_ +
           static_cast<Addr>(slot) * kLogBytes;
}

Addr
NvmlPool::acquireLogSegment(unsigned slot)
{
    panic_if(slot >= maxThreads_, "log slot out of range");
    const unsigned seg = segCursor_[slot]++ % kLogSegments;
    return logBase(slot) + static_cast<Addr>(seg) * segmentBytes();
}

void
NvmlPool::recover(pm::PmContext &ctx)
{
    pm::OriginScope origin(ctx, trace::Origin::NvmlRecovery);
    // The allocator first: its redo log may carry bitmap mutations the
    // undo rollback below relies on (freeing needs a valid bitmap).
    alloc_->recover(ctx);

    for (unsigned slot = 0; slot < maxThreads_; slot++) {
        std::uint64_t st = 0;
        ctx.load(stateOff(slot), &st, 8);

        // Walk every log segment, validating records. Only the
        // segment of the crashed transaction yields any (cleared
        // segments terminate at their first record).
        struct Rec { UndoKind kind; Addr addr; std::uint32_t size;
                     Addr payloadOff; };
        std::vector<Rec> recs;
        for (unsigned seg = 0; seg < kLogSegments; seg++) {
        const Addr seg_base = logBase(slot) + seg * segmentBytes();
        Addr cursor = seg_base;
        const Addr limit = seg_base + segmentBytes();
        while (cursor + sizeof(UndoHeader) <= limit) {
            UndoHeader hdr{};
            ctx.load(cursor, &hdr, sizeof(hdr));
            if (hdr.magic != UndoHeader::kMagic ||
                hdr.kind == UndoKind::End) {
                break;
            }
            const Addr payload = cursor + sizeof(UndoHeader);
            if (payload + hdr.size > limit ||
                undoCrc(hdr, ctx.pool().at<std::uint8_t>(payload),
                        hdr.size) != hdr.checksum) {
                // Torn or corrupted tail record: its data range was
                // never modified (records are fenced before data
                // writes), so skip.
                break;
            }
            recs.push_back({hdr.kind, hdr.addr, hdr.size, payload});
            cursor = lineBase(payload + hdr.size + kCacheLineSize - 1);
        }
        }

        if (st == static_cast<std::uint64_t>(TxState::Active)) {
            // Roll back: restore snapshots newest-first, release
            // transactional allocations.
            for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
                if (it->kind == UndoKind::Snapshot) {
                    std::vector<std::uint8_t> old(it->size);
                    ctx.load(it->payloadOff, old.data(), it->size);
                    ctx.store(it->addr, old.data(), it->size,
                              DataClass::User);
                    ctx.flush(it->addr, it->size);
                    ctx.fence(FenceKind::Ordering);
                } else if (it->kind == UndoKind::Alloc &&
                           alloc_->isAllocated(it->addr)) {
                    // The bitmap check makes rollback idempotent if a
                    // previous recovery attempt itself crashed.
                    alloc_->free(ctx, it->addr);
                }
            }
        }

        // Clear the logs and descriptor either way.
        for (unsigned seg = 0; seg < kLogSegments; seg++) {
            const Addr seg_base = logBase(slot) + seg * segmentBytes();
            ctx.store(seg_base, &kEndRecord, sizeof(kEndRecord),
                      DataClass::Log);
            ctx.flush(seg_base, sizeof(kEndRecord));
        }
        const auto none = static_cast<std::uint64_t>(TxState::None);
        ctx.store(stateOff(slot), &none, 8, DataClass::TxMeta);
        ctx.flush(stateOff(slot), 8);
        ctx.fence(FenceKind::Durability);
    }
}

void
NvmlPool::scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines,
                core::VerifyReport &report)
{
    if (lines.empty())
        return;
    const Addr states_end = base_ + kCacheLineSize * maxThreads_;
    const Addr logs_end = rootOff_;
    const LineAddr root_line = lineOf(rootOff_);
    const Addr alloc_log = heapBase_;
    const Addr alloc_log_end =
        heapBase_ + alloc::NvmlAllocator::logBytes();

    std::vector<LineAddr> desc_lost, log_lost, root_lost, alloc_lost,
        rest;
    // Descriptors first: a slot forced ACTIVE here makes its log
    // lines (scanned below) count as live damage.
    for (const LineAddr line : lines) {
        const Addr off = static_cast<Addr>(line) << kCacheLineBits;
        if (off >= base_ && off < states_end) {
            // Zero-filled reads as NONE, which would silently skip a
            // pending rollback. Force the conservative path: ACTIVE,
            // so recover() rolls back whatever valid records remain.
            const auto active =
                static_cast<std::uint64_t>(TxState::Active);
            ctx.store(off, &active, 8, DataClass::TxMeta);
            ctx.persist(off, 8);
            desc_lost.push_back(line);
        }
    }
    for (const LineAddr line : lines) {
        const Addr off = static_cast<Addr>(line) << kCacheLineBits;
        if (off >= base_ && off < states_end)
            continue; // handled above
        if (off >= states_end && off < logs_end) {
            const unsigned slot = static_cast<unsigned>(
                (off - states_end) / kLogBytes);
            std::uint64_t st = 0;
            ctx.load(stateOff(slot), &st, 8);
            if (st == static_cast<std::uint64_t>(TxState::Active))
                log_lost.push_back(line);
            // Retired/cleared log content is dead either way.
        } else if (line == root_line) {
            root_lost.push_back(line);
        } else if (off >= alloc_log && off < alloc_log_end) {
            alloc_lost.push_back(line);
        } else {
            rest.push_back(line);
        }
    }

    if (!desc_lost.empty()) {
        report.degrade("nvml-descriptor-lost",
                       std::to_string(desc_lost.size()) +
                           " tx descriptor(s) lost; forced ACTIVE for "
                           "conservative rollback",
                       desc_lost);
    }
    if (!log_lost.empty()) {
        report.degrade("nvml-undo-record-lost",
                       std::to_string(log_lost.size()) +
                           " undo-log line(s) of an ACTIVE slot lost; "
                           "rollback stops at the hole",
                       log_lost);
    }
    if (!root_lost.empty()) {
        report.degrade("nvml-root-lost",
                       "pool root slot lost to media faults",
                       root_lost);
    }
    if (!alloc_lost.empty()) {
        report.degrade("nvml-alloc-log-lost",
                       std::to_string(alloc_lost.size()) +
                           " allocator redo-log line(s) lost; pending "
                           "bitmap mutations dropped",
                       alloc_lost);
    }
    lines = std::move(rest);
}

bool
NvmlPool::logsQuiescent(pm::PmContext &ctx, std::string *why) const
{
    for (unsigned slot = 0; slot < maxThreads_; slot++) {
        std::uint64_t st = 0;
        ctx.load(stateOff(slot), &st, 8);
        if (st != static_cast<std::uint64_t>(TxState::None)) {
            if (why) {
                *why = "NVML slot " + std::to_string(slot) +
                       " descriptor is " + std::to_string(st) +
                       " (want NONE)";
            }
            return false;
        }
        for (unsigned seg = 0; seg < kLogSegments; seg++) {
            UndoHeader hdr{};
            ctx.load(logBase(slot) + seg * segmentBytes(), &hdr,
                     sizeof(hdr));
            if (hdr.magic == UndoHeader::kMagic &&
                hdr.kind != UndoKind::End) {
                if (why) {
                    *why = "NVML slot " + std::to_string(slot) +
                           " segment " + std::to_string(seg) +
                           " still holds a live undo record";
                }
                return false;
            }
        }
    }
    return true;
}

TxContext::TxContext(NvmlPool &pool, pm::PmContext &ctx)
    : pool_(pool), ctx_(ctx), state_(State::Active)
{
    id_ = ctx_.txBegin();
    slot_ = ctx_.tid() % pool_.maxThreads();
    logStart_ = pool_.acquireLogSegment(slot_);
    logHead_ = logStart_;
    setTxState(TxState::Active);
}

TxContext::~TxContext()
{
    // See Transaction::~Transaction: a crash point "kills the
    // process" mid-transaction; recovery rolls the log back.
    if (state_ == State::Active && ctx_.crashInjected())
        return;
    panic_if(state_ == State::Active,
             "TxContext destroyed without commit/abort");
}

void
TxContext::setTxState(TxState st)
{
    pm::OriginScope origin(ctx_, trace::Origin::NvmlTxState);
    const auto val = static_cast<std::uint64_t>(st);
    ctx_.store(pool_.stateOff(slot_), &val, 8, DataClass::TxMeta);
    ctx_.flush(pool_.stateOff(slot_), 8);
    ctx_.fence(FenceKind::Ordering);
}

void
TxContext::appendUndo(UndoKind kind, Addr addr, const void *payload,
                      std::uint32_t size)
{
    const Addr limit = logStart_ + NvmlPool::segmentBytes();
    panic_if(logHead_ + 2 * sizeof(UndoHeader) + size > limit,
             "NVML undo log overflow");
    UndoHeader hdr{UndoHeader::kMagic, kind, addr, size, 0};
    hdr.checksum = undoCrc(hdr, payload, size);
    // Undo records use cacheable stores + flush (NVML executes "all
    // log and data updates" with cacheable stores), and must be
    // durable before the data range may change: fence now. These
    // alternating record/data epochs are NVML's signature behaviour.
    pm::OriginScope origin(ctx_, trace::Origin::NvmlUndoAppend);
    ctx_.store(logHead_, &hdr, sizeof(hdr), DataClass::Log);
    if (size) {
        ctx_.store(logHead_ + sizeof(UndoHeader), payload, size,
                   DataClass::Log);
    }
    ctx_.flush(logHead_, sizeof(hdr) + size);
    // Line-aligned records; the per-record clears at commit keep
    // every retired segment terminated, so no tail sentinel is
    // needed (a mid-record stale tail fails magic/checksum checks).
    logHead_ = lineBase(logHead_ + sizeof(hdr) + size +
                        kCacheLineSize - 1);
    ctx_.fence(FenceKind::Ordering);
}

void
TxContext::addRange(Addr off, std::size_t n)
{
    panic_if(state_ != State::Active, "addRange on finished tx");
    std::vector<std::uint8_t> old(n);
    ctx_.load(off, old.data(), n);
    appendUndo(UndoKind::Snapshot, off, old.data(),
               static_cast<std::uint32_t>(n));
    noteModified(off, n);
}

void
TxContext::directStore(Addr off, const void *src, std::size_t n,
                       pm::DataClass cls)
{
    panic_if(state_ != State::Active, "directStore on finished tx");
    ctx_.store(off, src, n, cls);
    noteModified(off, n);
}

void
TxContext::noteModified(Addr off, std::size_t n)
{
    modified_.emplace_back(off, static_cast<std::uint32_t>(n));
}

Addr
TxContext::txAlloc(std::size_t n)
{
    panic_if(state_ != State::Active, "txAlloc on finished tx");
    const Addr payload = pool_.alloc_->alloc(ctx_, n);
    if (payload == kNullAddr)
        return payload;
    appendUndo(UndoKind::Alloc, payload, nullptr, 0);
    allocs_.push_back(payload);
    return payload;
}

void
TxContext::txFree(Addr payload)
{
    panic_if(state_ != State::Active, "txFree on finished tx");
    deferredFrees_.push_back(payload);
}

void
TxContext::commit()
{
    panic_if(state_ != State::Active, "double commit");

    // Flush every modified range, one durability point for the tx.
    // The data-durable-before-COMMITTED fence is never elidable for a
    // non-empty write set (a crash between COMMITTED and durable data
    // would keep torn rows); with nothing modified there is nothing
    // to drain, and the COMMITTED state write below carries its own
    // fence — the optimizer's coalescible pair (d).
    {
        pm::OriginScope origin(ctx_, trace::Origin::NvmlCommitFlush);
        for (const auto &[off, n] : modified_)
            ctx_.flush(off, n);
        if (!modified_.empty() ||
            !txlib::elisionEnabled(ctx_, txlib::kElideNvmlCommitFence)) {
            ctx_.fence(FenceKind::Durability);
        }
    }

    setTxState(TxState::Committed);
    clearLog();

    for (const Addr payload : deferredFrees_)
        pool_.alloc_->free(ctx_, payload);

    setTxState(TxState::None);
    state_ = State::Committed;
    ctx_.txEnd(id_);
}

void
TxContext::abort()
{
    panic_if(state_ != State::Active, "abort on finished tx");

    // Restore snapshots newest-first, then free tx allocations.
    Addr cursor = logStart_;
    std::vector<std::pair<Addr, UndoHeader>> recs;
    while (cursor < logHead_) {
        UndoHeader hdr{};
        ctx_.load(cursor, &hdr, sizeof(hdr));
        recs.emplace_back(cursor + sizeof(UndoHeader), hdr);
        cursor = lineBase(cursor + sizeof(UndoHeader) + hdr.size +
                          kCacheLineSize - 1);
    }
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
        const auto &[payload_off, hdr] = *it;
        if (hdr.kind == UndoKind::Snapshot) {
            std::vector<std::uint8_t> old(hdr.size);
            ctx_.load(payload_off, old.data(), hdr.size);
            ctx_.store(hdr.addr, old.data(), hdr.size, DataClass::User);
            ctx_.flush(hdr.addr, hdr.size);
            ctx_.fence(FenceKind::Ordering);
        } else if (hdr.kind == UndoKind::Alloc) {
            pool_.alloc_->free(ctx_, hdr.addr);
        }
    }
    clearLog();
    setTxState(TxState::None);
    state_ = State::Aborted;
    ctx_.txAbort(id_);
}

void
TxContext::clearLog()
{
    pm::OriginScope origin(ctx_, trace::Origin::NvmlClearLog);
    if (txlib::elisionEnabled(ctx_, txlib::kElideNvmlClearLog)) {
        // Batched retirement: every end record stored, every record
        // line flushed, one fence. The per-record fences are the
        // optimizer's category (c) — consecutive clear epochs touch
        // different record lines — and dropping them is safe because
        // recover() clears logs and descriptors for any state a crash
        // leaves behind, however many records were already retired.
        std::vector<Addr> recs;
        Addr cursor = logStart_;
        while (cursor < logHead_) {
            UndoHeader hdr{};
            ctx_.load(cursor, &hdr, sizeof(hdr));
            recs.push_back(cursor);
            ctx_.store(cursor, &kEndRecord, sizeof(kEndRecord),
                       DataClass::Log);
            cursor = lineBase(cursor + sizeof(UndoHeader) + hdr.size +
                              kCacheLineSize - 1);
        }
        for (const Addr rec : recs)
            ctx_.flush(rec, sizeof(UndoHeader));
        if (!recs.empty())
            ctx_.fence(FenceKind::Ordering);
        logHead_ = logStart_;
        return;
    }
    // NVML "sets and clears its log entries" one at a time; each clear
    // is a singleton epoch.
    Addr cursor = logStart_;
    while (cursor < logHead_) {
        UndoHeader hdr{};
        ctx_.load(cursor, &hdr, sizeof(hdr));
        ctx_.store(cursor, &kEndRecord, sizeof(kEndRecord), DataClass::Log);
        ctx_.flush(cursor, sizeof(kEndRecord));
        ctx_.fence(FenceKind::Ordering);
        cursor = lineBase(cursor + sizeof(UndoHeader) + hdr.size +
                          kCacheLineSize - 1);
    }
    logHead_ = logStart_;
}

} // namespace whisper::nvml
