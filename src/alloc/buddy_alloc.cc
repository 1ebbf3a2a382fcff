#include "alloc/buddy_alloc.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace whisper::alloc
{

using pm::DataClass;
using pm::FenceKind;

namespace
{
std::size_t
floorPow2(std::size_t v)
{
    return v ? std::size_t(1) << (63 - std::countl_zero(v)) : 0;
}
} // namespace

BuddyAllocator::BuddyAllocator(pm::PmContext &ctx, Addr base,
                               std::size_t size)
    : BuddyAllocator(base, size)
{
    // Format: the whole heap is one free block of maximum order.
    writeHeader(ctx, base_, maxOrder_, BlockState::Free, true);
    pushFree(base_, maxOrder_);
}

BuddyAllocator::BuddyAllocator(Addr base, std::size_t size)
    : base_(base)
{
    size_ = floorPow2(size);
    panic_if(size_ < kMinBlock, "buddy heap smaller than one block");
    maxOrder_ = static_cast<unsigned>(
        std::countr_zero(size_ / kMinBlock));
    freeLists_.resize(maxOrder_ + 1);
}

unsigned
BuddyAllocator::orderFor(std::size_t payload_bytes) const
{
    const std::size_t need = payload_bytes + sizeof(BuddyHeader);
    std::size_t block = kMinBlock;
    unsigned order = 0;
    while (block < need) {
        block <<= 1;
        order++;
    }
    return order;
}

Addr
BuddyAllocator::buddyOf(Addr block, unsigned order) const
{
    const Addr rel = block - base_;
    return base_ + (rel ^ (static_cast<Addr>(kMinBlock) << order));
}

BuddyHeader *
BuddyAllocator::header(pm::PmContext &ctx, Addr block) const
{
    return ctx.pool().at<BuddyHeader>(block);
}

void
BuddyAllocator::writeHeader(pm::PmContext &ctx, Addr block, unsigned order,
                            BlockState st, bool fence_now)
{
    BuddyHeader hdr{BuddyHeader::kMagic, static_cast<std::uint16_t>(order),
                    static_cast<std::uint16_t>(st), 0};
    ctx.store(block, &hdr, sizeof(hdr), DataClass::AllocMeta);
    ctx.flush(block, sizeof(hdr));
    if (fence_now)
        ctx.fence(FenceKind::Ordering);
}

void
BuddyAllocator::pushFree(Addr block, unsigned order)
{
    freeLists_[order].push_back(block);
}

bool
BuddyAllocator::removeFree(Addr block, unsigned order)
{
    auto &list = freeLists_[order];
    auto it = std::find(list.begin(), list.end(), block);
    if (it == list.end())
        return false;
    *it = list.back();
    list.pop_back();
    return true;
}

Addr
BuddyAllocator::alloc(pm::PmContext &ctx, std::size_t n)
{
    std::lock_guard<std::mutex> guard(mtx_);
    const unsigned want = orderFor(n);
    if (want > maxOrder_) {
        stats_.failedAllocs++;
        return kNullAddr;
    }

    // Find the smallest available order >= want.
    unsigned have = want;
    while (have <= maxOrder_ && freeLists_[have].empty())
        have++;
    if (have > maxOrder_) {
        stats_.failedAllocs++;
        return kNullAddr;
    }

    Addr block = freeLists_[have].back();
    freeLists_[have].pop_back();

    // Split down to the wanted order. Each split persists the new
    // buddy's header first, then shrinks the block in place — if we
    // crash mid-way the old (larger) header still describes a valid
    // free block and the half-written buddy is unreachable garbage
    // inside it.
    while (have > want) {
        have--;
        const Addr upper = block + (static_cast<Addr>(kMinBlock) << have);
        writeHeader(ctx, upper, have, BlockState::Free, false);
        writeHeader(ctx, block, have, BlockState::Free, true);
        pushFree(upper, have);
        stats_.splits++;
    }

    // Hand the block out in the VOLATILE state; the caller promotes it
    // to PERSISTENT when its transaction commits. A crash before that
    // promotion reclaims the block (see recover()).
    writeHeader(ctx, block, want, BlockState::Volatile, true);

    stats_.allocs++;
    stats_.bytesLive += static_cast<std::size_t>(kMinBlock) << want;
    return block + sizeof(BuddyHeader);
}

void
BuddyAllocator::free(pm::PmContext &ctx, Addr payload)
{
    std::lock_guard<std::mutex> guard(mtx_);
    Addr block = payload - sizeof(BuddyHeader);
    BuddyHeader *hdr = header(ctx, block);
    panic_if(hdr->magic != BuddyHeader::kMagic,
             "free of a non-block at %llu",
             static_cast<unsigned long long>(payload));
    unsigned order = hdr->order;
    panic_if(hdr->state == static_cast<std::uint16_t>(BlockState::Free),
             "double free at %llu",
             static_cast<unsigned long long>(payload));

    stats_.frees++;
    stats_.bytesLive -= static_cast<std::size_t>(kMinBlock) << order;

    writeHeader(ctx, block, order, BlockState::Free, true);

    // Coalesce with the buddy while possible. Every merge rewrites the
    // surviving header persistently — the metadata churn the paper
    // attributes to single-heap allocators.
    while (order < maxOrder_) {
        const Addr buddy = buddyOf(block, order);
        BuddyHeader *bh = header(ctx, buddy);
        if (bh->magic != BuddyHeader::kMagic || bh->order != order ||
            bh->state != static_cast<std::uint16_t>(BlockState::Free)) {
            break;
        }
        if (!removeFree(buddy, order))
            break;
        block = std::min(block, buddy);
        order++;
        writeHeader(ctx, block, order, BlockState::Free, true);
        stats_.coalesces++;
    }
    pushFree(block, order);
}

void
BuddyAllocator::recover(pm::PmContext &ctx)
{
    for (auto &list : freeLists_)
        list.clear();
    stats_.bytesLive = 0;
    stats_.headersReformatted = 0;
    stats_.firstBadHeader = 0;

    Addr block = base_;
    const Addr end = base_ + size_;
    while (block < end) {
        BuddyHeader *hdr = header(ctx, block);
        if (hdr->magic != BuddyHeader::kMagic) {
            // Unreachable garbage (e.g. torn split, or a header line
            // zero-filled by the media-fault scrub); treat the region
            // as free. This mirrors a fsck-style conservative scan.
            // Counted, not logged: fault sweeps reformat thousands of
            // blocks, and the caller reports one summary line.
            if (stats_.headersReformatted++ == 0)
                stats_.firstBadHeader = block;
            writeHeader(ctx, block, 0, BlockState::Free, true);
            pushFree(block, 0);
            block += kMinBlock;
            continue;
        }
        const unsigned order = hdr->order;
        const std::size_t bytes = static_cast<std::size_t>(kMinBlock)
                                  << order;
        if (hdr->state ==
            static_cast<std::uint16_t>(BlockState::Volatile)) {
            // Allocation that never committed: reclaim.
            writeHeader(ctx, block, order, BlockState::Free, true);
            pushFree(block, order);
        } else if (hdr->state ==
                   static_cast<std::uint16_t>(BlockState::Free)) {
            pushFree(block, order);
        } else {
            stats_.bytesLive += bytes;
        }
        block += bytes;
    }
}

void
warnReformatted(const std::string &who, std::uint64_t headers, Addr first)
{
    if (headers > 0) {
        warn("buddy recovery: %s: %llu bad header(s) reformatted "
             "(first at %llu)",
             who.c_str(), static_cast<unsigned long long>(headers),
             static_cast<unsigned long long>(first));
    }
}

void
BuddyAllocator::setState(pm::PmContext &ctx, Addr payload, BlockState st)
{
    std::lock_guard<std::mutex> guard(mtx_);
    const Addr block = payload - sizeof(BuddyHeader);
    BuddyHeader *hdr = header(ctx, block);
    panic_if(hdr->magic != BuddyHeader::kMagic, "setState on non-block");
    const auto state_val = static_cast<std::uint16_t>(st);
    ctx.storeField(hdr->state, state_val, DataClass::AllocMeta);
    ctx.flush(ctx.pool().offsetOf(&hdr->state), sizeof(hdr->state));
    ctx.fence(FenceKind::Ordering);
}

BlockState
BuddyAllocator::state(pm::PmContext &ctx, Addr payload) const
{
    // Recovery walks hand this pointers read back from PM; after a
    // media fault a zero-filled line can yield an address outside the
    // heap (0 most commonly). Answer Free — "not a persisted block" —
    // instead of dereferencing a wild header, so recovery prunes the
    // referrer rather than panicking.
    if (payload < base_ + sizeof(BuddyHeader) ||
        payload >= base_ + size_) {
        return BlockState::Free;
    }
    const Addr block = payload - sizeof(BuddyHeader);
    const BuddyHeader *hdr = header(ctx, block);
    if (hdr->magic != BuddyHeader::kMagic)
        return BlockState::Free;
    return static_cast<BlockState>(hdr->state);
}

std::uint64_t
BuddyAllocator::freeBlockCount() const
{
    std::uint64_t n = 0;
    for (const auto &list : freeLists_)
        n += list.size();
    return n;
}

} // namespace whisper::alloc
