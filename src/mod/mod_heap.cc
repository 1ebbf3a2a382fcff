#include "mod/mod_heap.hh"

#include "common/logging.hh"

namespace whisper::mod
{

using pm::DataClass;
using pm::FenceKind;

// ------------------------------------------------------ ModAllocator

void
ModAllocator::persistBitmapWord(pm::PmContext &ctx, Addr word_off,
                                std::uint64_t new_val)
{
    // MOD discipline: store + flush only. The flush drains at the
    // owning update's single ordering fence; recovery tolerates a
    // stale word because occupancy is rebuilt from reachability.
    ctx.store(word_off, &new_val, 8, DataClass::AllocMeta);
    ctx.flush(word_off, 8);
}

bool
ModAllocator::isBlockStart(Addr off) const
{
    std::size_t cls = 0;
    std::uint64_t bit = 0;
    if (!locate(off, cls, bit))
        return false;
    return slabs_[cls].blocksBase + bit * slabs_[cls].blockSize == off;
}

void
ModAllocator::rebuildOccupancy(pm::PmContext &ctx,
                               const std::vector<Addr> &live)
{
    std::lock_guard<std::mutex> guard(mtx_);
    stats_.bytesLive = 0;
    for (auto &slab : slabs_) {
        const std::uint64_t words = (slab.blockCount + 63) / 64;
        slab.shadow.assign(words, 0);
        slab.cursor = 0;
    }
    for (Addr payload : live) {
        std::size_t cls = 0;
        std::uint64_t bit = 0;
        panic_if(!locate(payload, cls, bit),
                 "mod rebuild: offset %llu is not a slab block",
                 static_cast<unsigned long long>(payload));
        slabs_[cls].shadow[bit / 64] |= 1ull << (bit % 64);
        stats_.bytesLive += slabs_[cls].blockSize;
    }
    for (const auto &slab : slabs_) {
        const std::uint64_t words = (slab.blockCount + 63) / 64;
        for (std::uint64_t w = 0; w < words; w++) {
            ctx.store(slab.bitmapBase + w * 8, &slab.shadow[w], 8,
                      DataClass::AllocMeta);
        }
        ctx.flush(slab.bitmapBase, words * 8);
    }
}

// ----------------------------------------------------------- ModHeap

ModHeap::ModHeap(pm::PmContext &ctx, Addr base, std::size_t size,
                 unsigned max_threads)
    : base_(base), size_(size), maxThreads_(max_threads)
{
    layout();
    ctx.store(base_, &kMagic, 8, DataClass::TxMeta);
    ctx.flush(base_, 8);
    for (ThreadId t = 0; t < maxThreads_; t++) {
        const std::uint64_t zero = 0;
        ctx.store(laneOff(t), &zero, 8, DataClass::TxMeta);
        for (std::uint64_t s = 0; s < kGcEntries; s++)
            ctx.store(laneEntryOff(t, s), &kNullAddr, 8,
                      DataClass::TxMeta);
        ctx.flush(laneOff(t), laneBytes());
    }
    // Each arena's formatting constructor ends with a durability
    // fence; the last one also drains the header and lane flushes.
    for (ThreadId t = 0; t < maxThreads_; t++) {
        arenas_.push_back(std::make_unique<ModAllocator>(
            ctx, allocBase_ + t * arenaShare_, arenaShare_));
    }
}

ModHeap::ModHeap(Addr base, std::size_t size, unsigned max_threads)
    : base_(base), size_(size), maxThreads_(max_threads)
{
    layout();
    for (ThreadId t = 0; t < maxThreads_; t++) {
        arenas_.push_back(std::make_unique<ModAllocator>(
            allocBase_ + t * arenaShare_, arenaShare_));
    }
}

void
ModHeap::layout()
{
    panic_if(maxThreads_ == 0, "mod heap needs at least one thread");
    lanes_.assign(maxThreads_, Lane{});
    qcount_ = std::make_unique<std::atomic<std::uint64_t>[]>(maxThreads_);
    online_ = std::make_unique<std::atomic<bool>[]>(maxThreads_);
    for (unsigned t = 0; t < maxThreads_; t++) {
        qcount_[t].store(0, std::memory_order_relaxed);
        online_[t].store(true, std::memory_order_relaxed);
    }
    const Addr lanes_end =
        base_ + kCacheLineSize + maxThreads_ * laneBytes();
    allocBase_ = lineBase(lanes_end + kCacheLineSize - 1);
    panic_if(allocBase_ >= base_ + size_, "mod heap region too small");
    // Equal line-aligned arena shares: a thread's allocations live in
    // its own region, so no two threads ever share an allocator lock
    // or a metadata cache line.
    const std::size_t alloc_bytes = base_ + size_ - allocBase_;
    arenaShare_ =
        (alloc_bytes / maxThreads_) & ~(kCacheLineSize - 1);
    panic_if(arenaShare_ == 0, "mod heap region too small for %u arenas",
             maxThreads_);
}

Addr
ModHeap::laneOff(ThreadId tid) const
{
    panic_if(tid >= maxThreads_, "mod heap: lane %u out of range", tid);
    return base_ + kCacheLineSize + tid * laneBytes();
}

Addr
ModHeap::laneEntryOff(ThreadId tid, std::uint64_t slot) const
{
    return laneOff(tid) + 8 + (slot % kGcEntries) * 8;
}

ModAllocator &
ModHeap::arenaOf(Addr off) const
{
    panic_if(off < allocBase_ ||
                 off >= allocBase_ + arenaShare_ * maxThreads_,
             "offset %llu outside every mod arena",
             static_cast<unsigned long long>(off));
    return *arenas_[(off - allocBase_) / arenaShare_];
}

Addr
ModHeap::alloc(pm::PmContext &ctx, std::size_t n)
{
    return arenas_[ctx.tid() % maxThreads_]->alloc(ctx, n);
}

std::optional<TxId>
ModHeap::beginShadows(pm::PmContext &ctx, ThreadId tid,
                      std::span<Addr> out, std::size_t bytes)
{
    const TxId tx = ctx.txBegin();
    for (std::size_t i = 0; i < out.size(); i++) {
        out[i] = alloc(ctx, bytes);
        if (out[i] == kNullAddr) {
            for (std::size_t j = 0; j < i; j++)
                retire(ctx, tid, out[j]);
            ctx.txAbort(tx);
            return std::nullopt;
        }
    }
    return tx;
}

void
ModHeap::retire(pm::PmContext &ctx, ThreadId tid, Addr node)
{
    Lane &lane = lanes_.at(tid);
    // Bound the un-reclaimed backlog: once a full ring's worth is
    // outstanding, take a durability point first. (Grace may keep
    // deferring the actual frees; the persistent ring then wraps
    // over un-reclaimed entries, which costs post-mortem visibility
    // only — recovery clears lanes wholesale and rebuilds occupancy
    // from reachability.)
    if (lane.pendingTotal >= kGcEntries)
        durabilityPoint(ctx, tid);
    ctx.store(laneEntryOff(tid, lane.count), &node, 8,
              DataClass::TxMeta);
    ctx.flush(laneEntryOff(tid, lane.count), 8);
    lane.count++;
    lane.fresh.push_back(node);
    lane.pendingTotal++;
    gc_.retired++;
}

bool
ModHeap::batchRipe(const GraceBatch &batch, ThreadId tid) const
{
    for (unsigned t = 0; t < maxThreads_; t++) {
        if (t == tid)
            continue;
        if (!online_[t].load(std::memory_order_acquire))
            continue;
        if (qcount_[t].load(std::memory_order_acquire) <= batch.snap[t])
            return false;
    }
    return true;
}

void
ModHeap::reclaimRipe(pm::PmContext &ctx, ThreadId tid)
{
    Lane &lane = lanes_.at(tid);
    while (!lane.grace.empty() && batchRipe(lane.grace.front(), tid)) {
        GraceBatch &batch = lane.grace.front();
        for (Addr node : batch.nodes)
            arenaOf(node).free(ctx, node);
        gc_.reclaimed += batch.nodes.size();
        lane.pendingTotal -= batch.nodes.size();
        lane.grace.pop_front();
    }
}

void
ModHeap::durabilityPoint(pm::PmContext &ctx, ThreadId tid)
{
    // One gate turn for the whole durability point: under a fuzzing
    // schedule the fence, the grace arithmetic and any reclaim frees
    // land at one deterministic position in the global op order. The
    // turn is the context's own, whichever lane it serves.
    pm::GateTurn turn(ctx.schedGate(), ctx.tid());
    Lane &lane = lanes_.at(tid);
    // The dfence makes every swap this thread issued durable; the
    // durable image can no longer name the nodes retired before it.
    ctx.fence(FenceKind::Durability);
    if (!lane.fresh.empty()) {
        GraceBatch batch;
        batch.nodes = std::move(lane.fresh);
        lane.fresh.clear();
        batch.snap.resize(maxThreads_);
        for (unsigned t = 0; t < maxThreads_; t++)
            batch.snap[t] = qcount_[t].load(std::memory_order_acquire);
        lane.grace.push_back(std::move(batch));
    }
    // Passing a durability point is also a quiescent point: this
    // thread holds no references into any structure here. The release
    // pairs with batchRipe()'s acquire, ordering our last reads
    // before another thread's reuse of a block it then reclaims.
    qcount_[tid].fetch_add(1, std::memory_order_release);
    reclaimRipe(ctx, tid);
    ctx.store(laneOff(tid), &lane.count, 8, DataClass::TxMeta);
    ctx.flush(laneOff(tid), 8);
    gc_.durabilityPoints++;
}

void
ModHeap::readerQuiesce(ThreadId tid)
{
    panic_if(tid >= maxThreads_, "mod heap: lane %u out of range", tid);
    qcount_[tid].fetch_add(1, std::memory_order_release);
}

void
ModHeap::threadExit(pm::PmContext &ctx, ThreadId tid)
{
    durabilityPoint(ctx, tid);
    online_[tid].store(false, std::memory_order_release);
    // Other threads may have quiesced since the durability point
    // above; try once more so the last thread out reclaims its own
    // backlog. Whatever stays is swept by the next recovery.
    pm::GateTurn turn(ctx.schedGate(), ctx.tid());
    reclaimRipe(ctx, tid);
}

void
ModHeap::recover(pm::PmContext &ctx,
                 const std::vector<Addr> &reachable)
{
    // Route each live node to its owning arena for the mark phase.
    std::vector<std::vector<Addr>> per_arena(maxThreads_);
    for (Addr node : reachable) {
        panic_if(node < allocBase_ ||
                     node >= allocBase_ + arenaShare_ * maxThreads_,
                 "reachable node %llu outside every mod arena",
                 static_cast<unsigned long long>(node));
        per_arena[(node - allocBase_) / arenaShare_].push_back(node);
    }
    for (ThreadId t = 0; t < maxThreads_; t++)
        arenas_[t]->rebuildOccupancy(ctx, per_arena[t]);
    for (ThreadId t = 0; t < maxThreads_; t++) {
        const std::uint64_t zero = 0;
        ctx.store(laneOff(t), &zero, 8, DataClass::TxMeta);
        for (std::uint64_t s = 0; s < kGcEntries; s++)
            ctx.store(laneEntryOff(t, s), &kNullAddr, 8,
                      DataClass::TxMeta);
        ctx.flush(laneOff(t), laneBytes());
        lanes_[t] = Lane{};
        qcount_[t].store(0, std::memory_order_relaxed);
        online_[t].store(true, std::memory_order_relaxed);
    }
    gc_.retired = 0;
    gc_.reclaimed = 0;
    gc_.durabilityPoints = 0;
    ctx.fence(FenceKind::Durability);
}

bool
ModHeap::gcQuiescent(pm::PmContext &ctx, std::string *why) const
{
    for (ThreadId t = 0; t < maxThreads_; t++) {
        if (lanes_[t].pendingTotal != 0) {
            if (why)
                *why = "gc lane has pending reclaims";
            return false;
        }
        std::uint64_t watermark = ~std::uint64_t(0);
        ctx.load(laneOff(t), &watermark, 8);
        if (watermark != 0) {
            if (why)
                *why = "gc lane watermark not reset";
            return false;
        }
        for (std::uint64_t s = 0; s < kGcEntries; s++) {
            Addr entry = 0;
            ctx.load(laneEntryOff(t, s), &entry, 8);
            if (entry != kNullAddr) {
                if (why)
                    *why = "gc lane ring not cleared";
                return false;
            }
        }
    }
    return true;
}

bool
ModHeap::isBlockStart(Addr off) const
{
    if (off < allocBase_ || off >= allocBase_ + arenaShare_ * maxThreads_)
        return false;
    return arenaOf(off).isBlockStart(off);
}

bool
ModHeap::isLiveNode(Addr off) const
{
    if (off < allocBase_ || off >= allocBase_ + arenaShare_ * maxThreads_)
        return false;
    const ModAllocator &arena = arenaOf(off);
    return arena.isBlockStart(off) && arena.isAllocated(off);
}

alloc::AllocStats
ModHeap::allocStats() const
{
    alloc::AllocStats sum;
    for (const auto &arena : arenas_) {
        const alloc::AllocStats &s = arena->stats();
        sum.allocs += s.allocs;
        sum.frees += s.frees;
        sum.failedAllocs += s.failedAllocs;
        sum.splits += s.splits;
        sum.coalesces += s.coalesces;
        sum.bytesLive += s.bytesLive;
    }
    return sum;
}

bool
ModHeap::magicIntact(pm::PmContext &ctx) const
{
    std::uint64_t magic = 0;
    ctx.load(base_, &magic, 8);
    return magic == kMagic;
}

void
ModHeap::scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines)
{
    if (lines.empty())
        return;
    const LineAddr first = lineOf(base_);
    const LineAddr last = lineOf(base_ + size_ - 1);
    std::vector<LineAddr> rest;
    for (const LineAddr line : lines) {
        if (line < first || line > last) {
            rest.push_back(line);
            continue;
        }
        if (line == first) {
            const std::uint64_t magic = kMagic;
            ctx.store(base_, &magic, 8, pm::DataClass::TxMeta);
            ctx.persist(base_, 8);
        }
        // Lanes, bitmap words and unreachable nodes are rebuilt or
        // discarded by recover(); nothing else needs rewriting.
    }
    lines = std::move(rest);
}

} // namespace whisper::mod
