/**
 * @file
 * Common interface of the persistent allocators.
 *
 * The paper finds that allocator metadata — not user data — causes
 * most small epochs and much of the write amplification (their
 * Consequences 3, 8, 9). Each WHISPER access layer therefore gets the
 * allocator design the original system had:
 *
 *  - BuddyAllocator: N-store/Echo. One heap for every size; splits and
 *    coalesces write persistent headers; every block carries a
 *    FREE/VOLATILE/PERSISTENT state variable written up to three times
 *    per transaction.
 *  - SlabAllocator: Mnemosyne. Per-size-class slabs with a persistent
 *    allocation bitmap and a volatile free index; may leak on a crash
 *    (no logging), which keeps its epoch count low.
 *  - NvmlAllocator: NVML. Slab-based, but every bitmap mutation is
 *    redo-logged and the log entry cleared afterwards, each in its own
 *    epoch; never leaks.
 */

#ifndef WHISPER_ALLOC_ALLOCATOR_HH
#define WHISPER_ALLOC_ALLOCATOR_HH

#include <mutex>

#include "pm/pm_context.hh"

namespace whisper::alloc
{

/** Statistics all allocators expose. */
struct AllocStats
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t failedAllocs = 0;
    std::uint64_t splits = 0;      //!< buddy only
    std::uint64_t coalesces = 0;   //!< buddy only
    std::uint64_t bytesLive = 0;
    /**
     * @{ Set by the last recover() (buddy only): block headers found
     * bad and reformatted as free, and the first one's offset.
     */
    std::uint64_t headersReformatted = 0;
    Addr firstBadHeader = 0;
    /** @} */
};

/**
 * Abstract persistent allocator over a [base, base+size) region of a
 * pool. Offsets returned are payload offsets, usable with POff<T>.
 */
class PmAllocator
{
  public:
    virtual ~PmAllocator() = default;

    /**
     * Allocate @p n bytes.
     * @return payload offset, or kNullAddr when out of memory.
     */
    virtual Addr alloc(pm::PmContext &ctx, std::size_t n) = 0;

    /** Release a previously allocated payload. */
    virtual void free(pm::PmContext &ctx, Addr payload) = 0;

    /**
     * Rebuild volatile indexes from persistent allocator state after
     * a crash (called during re-mount, before any alloc/free).
     */
    virtual void recover(pm::PmContext &ctx) = 0;

    virtual const AllocStats &stats() const = 0;

  protected:
    /**
     * Serializes allocator-internal volatile state across application
     * threads. The real libraries' allocators are thread-safe the
     * same way (a lock around the heap).
     */
    std::mutex mtx_;
};

} // namespace whisper::alloc

#endif // WHISPER_ALLOC_ALLOCATOR_HH
