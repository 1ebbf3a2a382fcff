#include "mod/root_table.hh"

#include <algorithm>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/verify_report.hh"

namespace whisper::mod
{

using pm::DataClass;
using pm::FenceKind;

std::uint64_t
nodeChecksum(std::uint64_t first, const std::uint64_t *rest,
             std::size_t n)
{
    const std::uint32_t lo = crc32Update(crc32(&first, 8), rest, n * 8);
    const std::uint32_t hi =
        crc32Update(crc32Update(lo, &first, 8), rest, n * 8);
    return static_cast<std::uint64_t>(hi) << 32 | lo;
}

std::uint64_t
RootTable::headerCrc(std::uint64_t magic) const
{
    const std::uint64_t hdr[2] = {magic, slotCount_};
    return crc32(hdr, sizeof(hdr));
}

void
RootTable::format(pm::PmContext &ctx, std::uint64_t magic) const
{
    ctx.store(off_, &magic, 8, DataClass::TxMeta);
    ctx.store(off_ + 8, &slotCount_, 8, DataClass::TxMeta);
    const std::uint64_t crc = headerCrc(magic);
    ctx.store(off_ + 16, &crc, 8, DataClass::TxMeta);
    for (std::uint64_t s = 0; s < slotCount_; s++)
        ctx.store(slotOff(s), &kNullAddr, 8, DataClass::TxMeta);
    ctx.flush(off_, bytes(slotCount_));
    ctx.fence(FenceKind::Durability);
}

Addr
RootTable::slotOff(std::uint64_t slot) const
{
    panic_if(slot >= slotCount_, "mod root table: slot %llu out of range",
             static_cast<unsigned long long>(slot));
    return off_ + kHeaderBytes + slot * 8;
}

Addr
RootTable::load(pm::PmContext &ctx, std::uint64_t slot) const
{
    Addr root = kNullAddr;
    ctx.load(slotOff(slot), &root, 8);
    return root;
}

bool
RootTable::checkHeader(pm::PmContext &ctx, std::uint64_t magic,
                       const char *what, std::string *why) const
{
    std::uint64_t hdr[3] = {};
    ctx.load(off_, hdr, sizeof(hdr));
    const char *bad = nullptr;
    if (hdr[0] != magic)
        bad = "bad table magic";
    else if (hdr[1] != slotCount_ || hdr[2] != headerCrc(magic))
        bad = "table header CRC mismatch";
    if (bad && why)
        *why = std::string(what) + ": " + bad;
    return !bad;
}

void
RootTable::scrub(pm::PmContext &ctx, std::uint64_t magic,
                 std::vector<LineAddr> &lines, core::VerifyReport &report,
                 const char *lost) const
{
    const Addr end = off_ + bytes(slotCount_);
    std::vector<LineAddr> rest;
    std::vector<LineAddr> root_lost;
    for (const LineAddr line : lines) {
        if (line < lineOf(off_) || line > lineOf(end - 1)) {
            rest.push_back(line);
            continue;
        }
        const Addr lo = std::max<Addr>(line << kCacheLineBits, off_);
        const Addr hi =
            std::min<Addr>((line + 1) << kCacheLineBits, end);
        for (Addr off = lo; off < hi; off += 8) {
            if (off == off_) {
                ctx.store(off, &magic, 8, DataClass::TxMeta);
            } else if (off == off_ + 8) {
                ctx.store(off, &slotCount_, 8, DataClass::TxMeta);
            } else if (off == off_ + 16) {
                const std::uint64_t crc = headerCrc(magic);
                ctx.store(off, &crc, 8, DataClass::TxMeta);
            } else {
                ctx.store(off, &kNullAddr, 8, DataClass::TxMeta);
                if (root_lost.empty() || root_lost.back() != line)
                    root_lost.push_back(line);
            }
        }
        ctx.persist(lo, hi - lo);
    }
    if (!root_lost.empty()) {
        report.degrade("mod-root-lost",
                       std::to_string(root_lost.size()) + " " + lost,
                       root_lost);
    }
    lines = std::move(rest);
}

void
RootTable::commit(pm::PmContext &ctx, std::uint64_t slot, Addr expected,
                  Addr desired) const
{
    // The one ordering point: every shadow node, and the bitmap words
    // their allocations dirtied, durable before the swap.
    ctx.fence(FenceKind::Ordering);
    panic_if(!ctx.casStore(slotOff(slot), expected, desired,
                           DataClass::TxMeta),
             "mod root table: commit CAS lost despite stripe lock");
    ctx.flush(slotOff(slot), 8);
}

} // namespace whisper::mod
