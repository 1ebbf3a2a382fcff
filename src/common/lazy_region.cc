#include "common/lazy_region.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace whisper
{

LazyRegion::LazyRegion(std::size_t bytes) : bytes_(bytes)
{
    panic_if(bytes == 0, "empty LazyRegion");
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    panic_if(p == MAP_FAILED, "mmap of %zu bytes failed: %s", bytes,
             std::strerror(errno));
    base_ = static_cast<std::uint8_t *>(p);
}

LazyRegion::~LazyRegion()
{
    if (base_)
        munmap(base_, bytes_);
}

LazyRegion::LazyRegion(LazyRegion &&other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0))
{
}

void
LazyRegion::adviseHugePages()
{
    madvise(base_, bytes_, MADV_HUGEPAGE);
}

} // namespace whisper
