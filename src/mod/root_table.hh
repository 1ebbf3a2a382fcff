/**
 * @file
 * The root table of a MOD structure, and the one commit every MOD
 * update ends in.
 *
 * Both MOD structures keep their roots (hashmap bucket heads, vector
 * spine slots) in one table format at the structure's table offset:
 *
 *   {magic, slotCount, headerCrc, slots[slotCount]}
 *
 * The header CRC protects the root metadata against media corruption;
 * the header is fully redundant with the attach parameters, so a
 * scrub rewrites it silently, while a lost slot has no second copy and
 * is nulled as declared data loss.
 *
 * An update changes exactly one slot (DESIGN.md §8): it stores and
 * flushes a shadow copy of what the slot will name, then commit()
 * issues the update's one ordering fence and swaps the slot with an
 * 8-byte CAS. The caller holds the slot's writer stripe from before
 * it loaded the expected value, so the CAS cannot lose.
 */

#ifndef WHISPER_MOD_ROOT_TABLE_HH
#define WHISPER_MOD_ROOT_TABLE_HH

#include <string>
#include <vector>

#include "pm/pm_context.hh"

namespace whisper::core
{
class VerifyReport;
}

namespace whisper::mod
{

/**
 * The 64-bit MOD node checksum: two chained CRC32 passes over
 * @p first and then @p n words at @p rest. A zero-filled (scrubbed)
 * node never validates, so media loss is always detected.
 */
std::uint64_t nodeChecksum(std::uint64_t first, const std::uint64_t *rest,
                           std::size_t n);

class RootTable
{
  public:
    /** Bytes of {magic, slotCount, headerCrc} before the slots. */
    static constexpr std::size_t kHeaderBytes = 24;

    /** Bytes a table of @p slot_count slots occupies. */
    static constexpr std::size_t
    bytes(std::uint64_t slot_count)
    {
        return kHeaderBytes + slot_count * 8;
    }

    /**
     * The table at pool offset @p off. The owning structure passes
     * its header magic to format(), checkHeader() and scrub(): the
     * table keeps only its place, so the structures get no larger. A
     * larger ModHashmap object moves the heap buffers allocated after
     * it, whose in-page offsets DRAM-traced runs record: a table that
     * keeps its magic changes the one-thread mod-hashmap trace.
     */
    RootTable(Addr off, std::uint64_t slot_count)
        : off_(off), slotCount_(slot_count)
    {
    }

    /** Write the header and null every slot; durably fenced. */
    void format(pm::PmContext &ctx, std::uint64_t magic) const;

    /** Pool offset of @p slot's 8-byte cell. */
    Addr slotOff(std::uint64_t slot) const;

    Addr load(pm::PmContext &ctx, std::uint64_t slot) const;

    /**
     * Magic, count and CRC intact; otherwise fills @p why with the
     * fault, prefixed by @p what (the structure's name).
     */
    bool checkHeader(pm::PmContext &ctx, std::uint64_t magic,
                     const char *what, std::string *why) const;

    /**
     * Media-fault scrub of the table's own lines: header words are
     * rewritten from the attach parameters, every slot on a lost line
     * is nulled and the line degraded as "mod-root-lost" with detail
     * "<n> @p lost". Table lines are erased from @p lines; the rest
     * (node lines) stay for the structure and the heap.
     */
    void scrub(pm::PmContext &ctx, std::uint64_t magic,
               std::vector<LineAddr> &lines, core::VerifyReport &report,
               const char *lost) const;

    /**
     * Commit an update: the one FenceKind::Ordering fence (every
     * shadow line flushed so far is ordered before the swap), the
     * 8-byte CAS of @p slot from @p expected to @p desired, and the
     * slot's flush. The caller's stripe lock pins @p expected, so a
     * lost CAS is a bug and panics.
     */
    void commit(pm::PmContext &ctx, std::uint64_t slot, Addr expected,
                Addr desired) const;

    std::uint64_t slotCount() const { return slotCount_; }

  private:
    /** CRC32 (widened) of the {magic, slotCount} header words. */
    std::uint64_t headerCrc(std::uint64_t magic) const;

    Addr off_;
    std::uint64_t slotCount_;
};

} // namespace whisper::mod

#endif // WHISPER_MOD_ROOT_TABLE_HH
