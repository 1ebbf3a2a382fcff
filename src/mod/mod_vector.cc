#include "mod/mod_vector.hh"

#include <cstddef>

#include "common/logging.hh"
#include "core/verify_report.hh"

namespace whisper::mod
{

using pm::DataClass;

namespace
{

/** One stripe per kSlotsPerStripe slots, plus a spare. */
std::unique_ptr<std::mutex[]>
makeStripes(std::uint64_t slot_count)
{
    return std::make_unique<std::mutex[]>(
        (slot_count + ModVector::kSlotsPerStripe - 1) /
            ModVector::kSlotsPerStripe +
        1);
}

bool
chunkValid(const VecChunk &chunk)
{
    return chunk.count >= 1 && chunk.count <= ModVector::kElems &&
           chunk.checksum ==
               nodeChecksum(chunk.count, chunk.elems, ModVector::kElems);
}

} // namespace

ModVector::ModVector(pm::PmContext &ctx, ModHeap &heap, Addr table_off,
                     std::uint64_t slot_count)
    : ModVector(heap, table_off, slot_count)
{
    root_.format(ctx, kMagic);
}

ModVector::ModVector(ModHeap &heap, Addr table_off,
                     std::uint64_t slot_count)
    : heap_(heap), root_(table_off, slot_count),
      stripes_(makeStripes(slot_count))
{
}

std::uint64_t
ModVector::stripeOf(std::uint64_t slot) const
{
    // Range stripes: a block of kSlotsPerStripe consecutive slots
    // shares one lock, so threads working disjoint spine regions
    // (the partitioned workloads give each thread its own block of
    // slots) never contend.
    return slot / kSlotsPerStripe;
}

bool
ModVector::write(pm::PmContext &ctx, ThreadId tid, std::uint64_t slot,
                 std::uint64_t first, const std::uint64_t *vals,
                 std::uint64_t k, std::uint64_t new_count)
{
    panic_if(k == 0 || first + k > kElems || new_count > kElems ||
                 first + k > new_count,
             "mod vector: bad write shape");
    // Stripe taken before the slot is read: the slot cannot move under
    // this writer, so the commit CAS must succeed.
    std::lock_guard<std::mutex> guard(stripes_[stripeOf(slot)]);
    const Addr old = root_.load(ctx, slot);
    VecChunk prev{};
    if (old != kNullAddr)
        ctx.load(old, &prev, sizeof(prev));

    Addr node = kNullAddr;
    const std::optional<TxId> tx =
        heap_.beginShadows(ctx, tid, {&node, 1}, sizeof(VecChunk));
    if (!tx)
        return false;

    // Assemble the shadow image, then store it with per-class
    // attribution: fresh values are user bytes, carried-over values
    // are shadow-copy relocation (counted as log-class amplification),
    // and the header is transaction metadata.
    std::uint64_t elems[kElems] = {};
    for (std::uint64_t i = 0; i < new_count; i++)
        elems[i] = i < prev.count ? prev.elems[i] : 0;
    for (std::uint64_t i = 0; i < k; i++)
        elems[first + i] = vals[i];
    const std::uint64_t checksum = nodeChecksum(new_count, elems, kElems);

    ctx.store(node + offsetof(VecChunk, checksum), &checksum, 8,
              DataClass::TxMeta);
    ctx.store(node + offsetof(VecChunk, count), &new_count, 8,
              DataClass::TxMeta);
    for (std::uint64_t i = 0; i < kElems; i++) {
        const bool fresh = i >= first && i < first + k;
        ctx.store(node + offsetof(VecChunk, elems) + i * 8, &elems[i],
                  8, fresh ? DataClass::User : DataClass::Log);
    }
    ctx.flush(node, sizeof(VecChunk));

    root_.commit(ctx, slot, old, node);
    if (old != kNullAddr)
        heap_.retire(ctx, tid, old);
    ctx.txEnd(*tx);
    return true;
}

std::uint64_t
ModVector::chunkCount(pm::PmContext &ctx, std::uint64_t slot)
{
    const Addr off = root_.load(ctx, slot);
    if (off == kNullAddr)
        return 0;
    std::uint64_t count = 0;
    ctx.load(off + offsetof(VecChunk, count), &count, 8);
    return count;
}

bool
ModVector::get(pm::PmContext &ctx, std::uint64_t slot,
               std::uint64_t idx, std::uint64_t &out)
{
    const Addr off = root_.load(ctx, slot);
    if (off == kNullAddr || idx >= kElems)
        return false;
    VecChunk chunk{};
    ctx.load(off, &chunk, sizeof(chunk));
    if (idx >= chunk.count)
        return false;
    out = chunk.elems[idx];
    return true;
}

bool
ModVector::check(pm::PmContext &ctx, std::string *why)
{
    if (!root_.checkHeader(ctx, kMagic, "mod vector", why))
        return false;
    for (std::uint64_t s = 0; s < root_.slotCount(); s++) {
        const Addr off = root_.load(ctx, s);
        if (off == kNullAddr)
            continue;
        if (!heap_.isBlockStart(off)) {
            if (why)
                *why = "mod vector: slot names a non-node offset";
            return false;
        }
        VecChunk chunk{};
        ctx.load(off, &chunk, sizeof(chunk));
        if (chunk.count == 0 || chunk.count > kElems) {
            if (why)
                *why = "mod vector: chunk count out of range";
            return false;
        }
        if (!chunkValid(chunk)) {
            if (why)
                *why = "mod vector: chunk checksum mismatch";
            return false;
        }
    }
    return true;
}

void
ModVector::reachable(pm::PmContext &ctx, std::vector<Addr> &out)
{
    for (std::uint64_t s = 0; s < root_.slotCount(); s++) {
        const Addr off = root_.load(ctx, s);
        if (off != kNullAddr && heap_.isBlockStart(off))
            out.push_back(off);
    }
}

void
ModVector::scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines,
                 core::VerifyReport &report)
{
    root_.scrub(ctx, kMagic, lines, report,
                "spine line(s) lost to media faults; affected slots "
                "nulled");
    if (lines.empty())
        return;
    // A poisoned chunk line was zero-filled, so the chunk fails its
    // CRC; null the referencing slot (the chunk block itself is
    // reclaimed when recovery rebuilds occupancy).
    std::vector<LineAddr> cut_lines;
    for (std::uint64_t s = 0; s < root_.slotCount(); s++) {
        const Addr off = root_.load(ctx, s);
        if (off == kNullAddr)
            continue;
        bool ok = heap_.isBlockStart(off);
        if (ok) {
            VecChunk chunk{};
            ctx.load(off, &chunk, sizeof(chunk));
            ok = chunkValid(chunk);
        }
        if (!ok) {
            ctx.store(root_.slotOff(s), &kNullAddr, 8, DataClass::TxMeta);
            ctx.persist(root_.slotOff(s), 8);
            cut_lines.push_back(lineOf(off));
        }
    }
    if (!cut_lines.empty()) {
        report.degrade("mod-chunk-corrupt",
                       std::to_string(cut_lines.size()) +
                           " chunk(s) failed their CRC; "
                           "referencing slots nulled",
                       cut_lines);
    }
}

} // namespace whisper::mod
