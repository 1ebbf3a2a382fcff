/**
 * @file
 * Single-heap persistent buddy allocator (the N-store / Echo design).
 *
 * All sizes come from one heap; allocation splits larger blocks and
 * freeing coalesces buddies, and every split/merge writes persistent
 * block headers. Each block carries a persistent state variable —
 * FREE, VOLATILE or PERSISTENT — that N-store-style applications write
 * up to three times per transaction (allocate as VOLATILE, commit as
 * PERSISTENT, later free as FREE), which is the paper's example of an
 * allocator-induced self-dependency (their Consequence 7 discussion).
 *
 * Crash behaviour: headers are persisted (flush + fence) before a
 * block is handed out, and recovery drops any block still VOLATILE,
 * so user code that crashes mid-transaction leaks nothing.
 */

#ifndef WHISPER_ALLOC_BUDDY_ALLOC_HH
#define WHISPER_ALLOC_BUDDY_ALLOC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.hh"

namespace whisper::alloc
{

/** Persistent lifecycle state of a buddy block. */
enum class BlockState : std::uint16_t
{
    Free = 0xF1EE,
    Volatile = 0x401A,    //!< allocated, not yet committed persistent
    Persistent = 0x9E45,
};

/** Persistent header at the front of every buddy block (16 bytes). */
struct BuddyHeader
{
    std::uint32_t magic;     //!< kMagic when the header is valid
    std::uint16_t order;     //!< block size == kMinBlock << order
    std::uint16_t state;     //!< BlockState
    std::uint64_t reserved;  //!< keeps payloads 16-byte aligned

    static constexpr std::uint32_t kMagic = 0xB0DD1E5u;
};

/**
 * The allocator. Volatile free lists are an index only; the persistent
 * headers are the source of truth and recovery rebuilds the lists by
 * walking the heap.
 */
class BuddyAllocator : public PmAllocator
{
  public:
    /** Smallest block (one cache line). */
    static constexpr std::size_t kMinBlock = 64;

    /**
     * Manage [base, base+size) of the pool behind @p ctx's pool.
     * @p size is rounded down to a power of two multiple of kMinBlock.
     * Formats the heap (one giant free block).
     */
    BuddyAllocator(pm::PmContext &ctx, Addr base, std::size_t size);

    /**
     * Attach without formatting (after a crash); call recover() next.
     */
    BuddyAllocator(Addr base, std::size_t size);

    Addr alloc(pm::PmContext &ctx, std::size_t n) override;
    void free(pm::PmContext &ctx, Addr payload) override;
    void recover(pm::PmContext &ctx) override;
    const AllocStats &stats() const override { return stats_; }

    /**
     * Flip a block's persistent state variable (N-store's FREE /
     * VOLATILE / PERSISTENT protocol). One store + flush + fence.
     */
    void setState(pm::PmContext &ctx, Addr payload, BlockState st);

    /**
     * Read a block's state (from the architectural image). A payload
     * address outside the heap, or one whose header magic is gone
     * (media loss), answers Free — recovery walks treat that as "not
     * a persisted block" and prune the referrer.
     */
    BlockState state(pm::PmContext &ctx, Addr payload) const;

    std::size_t heapSize() const { return size_; }

    /** Count blocks on the volatile free lists (test helper). */
    std::uint64_t freeBlockCount() const;

  private:
    unsigned orderFor(std::size_t payload_bytes) const;
    Addr buddyOf(Addr block, unsigned order) const;
    void writeHeader(pm::PmContext &ctx, Addr block, unsigned order,
                     BlockState st, bool fence_now);
    BuddyHeader *header(pm::PmContext &ctx, Addr block) const;
    void pushFree(Addr block, unsigned order);
    bool removeFree(Addr block, unsigned order);

    Addr base_ = 0;
    std::size_t size_ = 0;
    unsigned maxOrder_ = 0;
    std::vector<std::vector<Addr>> freeLists_;
    AllocStats stats_;
};

/**
 * warn() once that recovery of @p who's buddy heap reformatted
 * @p headers bad block headers, the first at @p first (the
 * AllocStats recovery figures); silent when @p headers is 0. Callers
 * that recover many heaps at once (the crash fuzzer's worker threads)
 * collect the figures and warn in a fixed order.
 */
void warnReformatted(const std::string &who, std::uint64_t headers,
                     Addr first);

} // namespace whisper::alloc

#endif // WHISPER_ALLOC_BUDDY_ALLOC_HH
