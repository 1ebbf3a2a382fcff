/**
 * @file
 * MOD persistent hashmap: functional (shadow-copied) bucket chains.
 *
 * Buckets are a flat table of chain-head pointers updated only by
 * 8-byte atomic swaps. Entries are immutable checksummed nodes; a
 * mutation builds the new chain prefix (shadow copies of the
 * predecessors plus the inserted/updated node, sharing the untouched
 * suffix), persists it behind a single ordering fence, and commits
 * with an 8-byte CAS on the bucket head — one ordering point per
 * update, exactly the MOD discipline, against NVML's alternating
 * undo-log epochs for the same workload.
 *
 * Concurrency: writers serialize per *stripe* (a partition-local
 * slice of the bucket table), so updates to disjoint keys run truly
 * in parallel and commit independently; the CAS is the commit point.
 * Readers take no lock at all — they chase the immutable chain from
 * whatever head the bucket publishes, relying on the heap's grace
 * periods to keep superseded nodes valid until every racing reader
 * has quiesced (ModHeap::readerQuiesce()/durabilityPoint()).
 *
 * The key space is partitioned (key's top 16 bits select a bucket
 * partition) so concurrent writers never shadow-copy each other's
 * chains, never meet on a stripe, and per-thread traffic stays
 * deterministic under any interleaving.
 */

#ifndef WHISPER_MOD_MOD_HASHMAP_HH
#define WHISPER_MOD_MOD_HASHMAP_HH

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

/** One immutable chain node (a single cache line in the 64B slab). */
struct MapEntry
{
    std::uint64_t checksum; //!< nodeChecksum(key, vals, kValWords)
    std::uint64_t key;
    Addr next;
    std::uint64_t vals[3];  //!< inline 24-byte value payload
};

/**
 * The persistent MOD hashmap.
 *
 * The buckets are a RootTable at @c table_off with one slot per
 * bucket, each naming the head of the bucket's chain.
 */
class ModHashmap
{
  public:
    static constexpr std::uint64_t kMagic = 0x4D4F444D41503031ull;
    static constexpr std::uint64_t kValWords = 3;
    /** Writer stripes per bucket partition. */
    static constexpr std::uint64_t kStripesPerPartition = 8;

    /**
     * Format (all buckets empty; durably fenced).
     *
     * @p broken_commit injects a seeded commit bug for the
     * `mod-hashmap-broken` test fixture: every put() durably
     * publishes a *sentinel* payload (with a checksum computed over
     * that sentinel, so it validates) and then patches the real
     * payload in place without flushing it. Reads are correct until
     * a power cut, which reverts the node to the sentinel — every
     * structural invariant still holds after recovery, but the
     * recovered value is one no put ever wrote: exactly the class of
     * commit bug only the durable-linearizability checker can catch.
     */
    ModHashmap(pm::PmContext &ctx, ModHeap &heap, Addr table_off,
               std::uint64_t bucket_count, unsigned partitions,
               bool broken_commit = false);

    /** Attach after a crash (no writes until recover()). */
    ModHashmap(ModHeap &heap, Addr table_off,
               std::uint64_t bucket_count, unsigned partitions,
               bool broken_commit = false);

    /**
     * Insert or update @p key with @p vals (kValWords words).
     * @p inserted reports which happened. Returns false when the
     * heap is exhausted.
     */
    bool put(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
             const std::uint64_t *vals, bool &inserted);

    /** Remove @p key; false when absent. */
    bool remove(pm::PmContext &ctx, ThreadId tid, std::uint64_t key);

    /**
     * Read @p key's value; false when absent. Lock-free: safe against
     * concurrent put/remove (the caller's thread must quiesce
     * periodically via the heap so grace periods can elapse).
     */
    bool lookup(pm::PmContext &ctx, std::uint64_t key,
                std::uint64_t *vals);

    /**
     * Structural invariants over every chain: nodes are live heap
     * blocks, checksums hold, every key hashes to its bucket, no
     * cycles. Fills @p why on violation.
     */
    bool check(pm::PmContext &ctx, std::string *why);

    /** Reachable entries (recovery mark phase / size recount). */
    void reachable(pm::PmContext &ctx, std::vector<Addr> &out);

    /**
     * Media-fault scrub (runs before recover()): the root table's
     * scrub ("mod-root-lost": a lost bucket line empties its
     * buckets), then every chain is truncated at its first corrupt
     * node (degrading "mod-chain-corrupt"). Node-region lines stay in
     * @p lines for the heap scrub.
     */
    void scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines,
               core::VerifyReport &report);

    std::uint64_t countReachable(pm::PmContext &ctx);

    std::uint64_t bucketOf(std::uint64_t key) const;

    /** Writer stripe of @p bucket (partition-local; exposed for tests). */
    std::uint64_t stripeOf(std::uint64_t bucket) const;

  private:
    /** A bucket's chain from its head down to @p key's node, if any. */
    struct ChainPath
    {
        Addr head = kNullAddr;
        std::vector<Addr> addrs;
        std::vector<MapEntry> nodes;
        bool found = false;
    };

    ChainPath walk(pm::PmContext &ctx, std::uint64_t bucket,
                   std::uint64_t key);

    /**
     * The one shadow update of put and remove. The found node and
     * its predecessors are path-copied over the untouched suffix;
     * @p fresh (null for a remove) replaces the found node, or goes
     * in front of the head when the key is absent.
     */
    bool rewrite(pm::PmContext &ctx, ThreadId tid, std::uint64_t bucket,
                 const ChainPath &path, const MapEntry *fresh);

    /**
     * Store one shadow node. @p fresh_payload marks key/vals as new
     * user bytes; copied nodes count their payload as relocation
     * (log-class) amplification.
     */
    void storeNode(pm::PmContext &ctx, Addr node,
                   const MapEntry &entry, bool fresh_payload);

    ModHeap &heap_;
    RootTable root_;
    unsigned partitions_;
    /** put() runs the seeded broken commit (see the constructor). */
    bool brokenCommit_;
    /**
     * Striped writer locks, kStripesPerPartition per partition. A
     * stripe only serializes writers hashing into the same slice of
     * one partition; cross-partition (i.e. cross-thread, for the
     * partitioned workloads) updates never contend.
     */
    std::unique_ptr<std::mutex[]> stripes_;
};

} // namespace whisper::mod

#endif // WHISPER_MOD_MOD_HASHMAP_HH
