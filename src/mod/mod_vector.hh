/**
 * @file
 * MOD persistent vector: a copy-on-write chunked array.
 *
 * The vector is a flat table of chunk pointers (the spine, updated
 * only by 8-byte atomic swaps) over checksummed chunks of eight
 * 64-bit elements. An update shadow-copies the one affected chunk,
 * persists it behind a single ordering fence, and commits with an
 * 8-byte CAS on the chunk's spine slot — the MOD pattern: one
 * ordering point per update, durability deferred to the heap's
 * durability points.
 *
 * Concurrency: writers serialize per spine *range* (kSlotsPerStripe
 * consecutive slots share a stripe lock), so updates to different
 * regions of the spine run in parallel and commit independently;
 * reads (get/chunkCount) are lock-free, relying on the heap's grace
 * periods to keep superseded chunks valid until racing readers
 * quiesce.
 *
 * Crash contract: every spine slot always names either the old or the
 * new fully-persisted chunk (the swap is a single in-line 8-byte
 * store issued only after the new chunk was fenced). Updates that
 * were not yet covered by a dfence may individually survive or
 * vanish, in any combination — that is the "minimal ordering" the
 * structure trades for its single ordering point.
 */

#ifndef WHISPER_MOD_MOD_VECTOR_HH
#define WHISPER_MOD_MOD_VECTOR_HH

#include <memory>
#include <mutex>
#include <string>

#include "mod/mod_heap.hh"
#include "mod/root_table.hh"

namespace whisper::core
{
class VerifyReport;
}

namespace whisper::mod
{

/** One persistent vector chunk (two cache lines in the 128B slab). */
struct VecChunk
{
    std::uint64_t checksum; //!< nodeChecksum(count, elems, kElems)
    std::uint64_t count;    //!< live elements, 1..kElems
    std::uint64_t elems[8];
};

/**
 * The persistent COW vector.
 *
 * The spine is a RootTable at @c table_off with one slot per chunk.
 * Slots are grouped into fixed-size regions so concurrent writers can
 * partition the spine; the structure itself only validates per-chunk
 * invariants and leaves region discipline to the caller.
 */
class ModVector
{
  public:
    static constexpr std::uint64_t kMagic = 0x4D4F445645433031ull;
    static constexpr std::uint64_t kElems = 8;
    /** Consecutive spine slots sharing one writer stripe. */
    static constexpr std::uint64_t kSlotsPerStripe = 64;

    /** Format a vector (all slots null; durably fenced). */
    ModVector(pm::PmContext &ctx, ModHeap &heap, Addr table_off,
              std::uint64_t slot_count);

    /** Attach after a crash (no writes until recover()). */
    ModVector(ModHeap &heap, Addr table_off, std::uint64_t slot_count);

    /**
     * One MOD update: the chunk at @p slot becomes a fresh shadow
     * node with @p new_count elements where [first, first+k) take
     * @p vals and every other live element is carried over. A null
     * slot is populated (no copy, no retire). Returns false when the
     * heap is exhausted.
     */
    bool write(pm::PmContext &ctx, ThreadId tid, std::uint64_t slot,
               std::uint64_t first, const std::uint64_t *vals,
               std::uint64_t k, std::uint64_t new_count);

    /** Element count of @p slot (0 when the slot is null). Lock-free. */
    std::uint64_t chunkCount(pm::PmContext &ctx, std::uint64_t slot);

    /** Read one element; false when absent. Lock-free. */
    bool get(pm::PmContext &ctx, std::uint64_t slot,
             std::uint64_t idx, std::uint64_t &out);

    /**
     * Structural invariants over every slot: the chunk is a live
     * heap block with a valid checksum and count in [1, kElems].
     * This is exactly the "root names a fully-persisted structure"
     * crash invariant. Fills @p why on violation.
     */
    bool check(pm::PmContext &ctx, std::string *why);

    /** Append every referenced chunk offset (recovery mark phase). */
    void reachable(pm::PmContext &ctx, std::vector<Addr> &out);

    /**
     * Media-fault scrub (runs before recover()): the root table's
     * scrub ("mod-root-lost"), then slots whose chunk fails its CRC
     * are nulled (degrading "mod-chunk-corrupt"). Chunk-region lines
     * stay in @p lines for the heap scrub.
     */
    void scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines,
               core::VerifyReport &report);

    /** Writer stripe of @p slot (slot / kSlotsPerStripe). */
    std::uint64_t stripeOf(std::uint64_t slot) const;

  private:
    ModHeap &heap_;
    RootTable root_;
    /** Range-striped writer locks over the spine. */
    std::unique_ptr<std::mutex[]> stripes_;
};

} // namespace whisper::mod

#endif // WHISPER_MOD_MOD_VECTOR_HH
