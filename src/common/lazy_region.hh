/**
 * @file
 * Kernel-zeroed anonymous memory: the PM device's images and the
 * trace buffers' large chunks.
 *
 * A LazyRegion is one private anonymous mapping. The kernel hands out
 * each 4 KiB page zero-filled on first write, and a read of a page
 * never written maps the shared zero page, so a region costs time and
 * resident memory in proportion to the pages actually written, not
 * to its size. MAP_NORESERVE keeps a large, mostly untouched pool
 * from counting against the commit limit. Huge pages are asked for
 * only by adviseHugePages(): the pool's walks (PmPool's written-page
 * map) are 4 KiB-granular, and one pool write must not fault in
 * 2 MiB, while a trace chunk is written front to back in full.
 */

#ifndef WHISPER_COMMON_LAZY_REGION_HH
#define WHISPER_COMMON_LAZY_REGION_HH

#include <cstddef>
#include <cstdint>

namespace whisper
{

/** A move-only, zero-initialized anonymous mapping of a fixed size. */
class LazyRegion
{
  public:
    /** Map @p bytes (> 0) of zeroes; panics if the mapping fails. */
    explicit LazyRegion(std::size_t bytes);
    ~LazyRegion();

    LazyRegion(LazyRegion &&other) noexcept;
    LazyRegion(const LazyRegion &) = delete;
    LazyRegion &operator=(const LazyRegion &) = delete;

    std::uint8_t *data() const { return base_; }
    std::size_t size() const { return bytes_; }

    /**
     * madvise(MADV_HUGEPAGE) the whole region: where transparent huge
     * pages are enabled in madvise mode, each aligned 2 MiB of it is
     * then faulted in at once. Advice only; a refusal is ignored.
     */
    void adviseHugePages();

  private:
    std::uint8_t *base_ = nullptr;
    std::size_t bytes_ = 0;
};

} // namespace whisper

#endif // WHISPER_COMMON_LAZY_REGION_HH
