#include "mod/mod_hashmap.hh"

#include <algorithm>
#include <cstddef>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/verify_report.hh"

namespace whisper::mod
{

using pm::DataClass;

namespace
{

/** Safety cap on chain walks; a longer chain means a cycle. */
constexpr std::uint64_t kMaxChain = 1u << 20;

/** Payload the broken commit makes durable in place of the real one. */
constexpr std::uint64_t kBrokenSentinel = 0xdeadbeefdeadbeefull;

/** The sentinel-payload twin of @p e, checksummed so it validates. */
MapEntry
brokenStale(const MapEntry &e)
{
    MapEntry s = e;
    for (std::uint64_t i = 0; i < ModHashmap::kValWords; i++)
        s.vals[i] = kBrokenSentinel ^ i;
    s.checksum = nodeChecksum(s.key, s.vals, ModHashmap::kValWords);
    return s;
}

bool
entryValid(const MapEntry &e)
{
    // The next pointer is deliberately outside the checksum: a shadow
    // path copy rewrites next but must not re-derive payload checksums.
    return e.checksum == nodeChecksum(e.key, e.vals, ModHashmap::kValWords);
}

} // namespace

ModHashmap::ModHashmap(pm::PmContext &ctx, ModHeap &heap,
                       Addr table_off, std::uint64_t bucket_count,
                       unsigned partitions, bool broken_commit)
    : ModHashmap(heap, table_off, bucket_count, partitions,
                 broken_commit)
{
    root_.format(ctx, kMagic);
}

ModHashmap::ModHashmap(ModHeap &heap, Addr table_off,
                       std::uint64_t bucket_count, unsigned partitions,
                       bool broken_commit)
    : heap_(heap), root_(table_off, bucket_count),
      partitions_(partitions), brokenCommit_(broken_commit),
      stripes_(std::make_unique<std::mutex[]>(partitions *
                                              kStripesPerPartition))
{
    panic_if(partitions_ == 0 || bucket_count % partitions_ != 0,
             "mod hashmap: buckets must split evenly over partitions");
}

std::uint64_t
ModHashmap::bucketOf(std::uint64_t key) const
{
    const std::uint64_t per = root_.slotCount() / partitions_;
    const std::uint64_t part = (key >> 48) % partitions_;
    return part * per + mix64(key) % per;
}

std::uint64_t
ModHashmap::stripeOf(std::uint64_t bucket) const
{
    // Partition-local: a bucket's stripe lives in its partition's own
    // block of kStripesPerPartition locks, so writers in different
    // partitions (== different threads under the partitioned
    // workloads) can never contend, no matter how buckets hash.
    const std::uint64_t per = root_.slotCount() / partitions_;
    return (bucket / per) * kStripesPerPartition +
           (bucket % per) % kStripesPerPartition;
}

void
ModHashmap::storeNode(pm::PmContext &ctx, Addr node,
                      const MapEntry &entry, bool fresh_payload)
{
    const DataClass payload =
        fresh_payload ? DataClass::User : DataClass::Log;
    ctx.store(node + offsetof(MapEntry, checksum), &entry.checksum, 8,
              DataClass::TxMeta);
    ctx.store(node + offsetof(MapEntry, key), &entry.key, 8, payload);
    ctx.store(node + offsetof(MapEntry, next), &entry.next, 8,
              DataClass::TxMeta);
    for (std::uint64_t i = 0; i < kValWords; i++)
        ctx.store(node + offsetof(MapEntry, vals) + i * 8,
                  &entry.vals[i], 8, payload);
    ctx.flush(node, sizeof(MapEntry));
}

ModHashmap::ChainPath
ModHashmap::walk(pm::PmContext &ctx, std::uint64_t bucket,
                 std::uint64_t key)
{
    ChainPath path;
    path.head = root_.load(ctx, bucket);
    Addr cur = path.head;
    while (cur != kNullAddr) {
        panic_if(path.addrs.size() > kMaxChain,
                 "mod hashmap: chain cycle");
        MapEntry e{};
        ctx.load(cur, &e, sizeof(e));
        path.addrs.push_back(cur);
        path.nodes.push_back(e);
        if (e.key == key) {
            path.found = true;
            break;
        }
        cur = e.next;
    }
    return path;
}

bool
ModHashmap::rewrite(pm::PmContext &ctx, ThreadId tid,
                    std::uint64_t bucket, const ChainPath &path,
                    const MapEntry *fresh)
{
    const std::size_t copies = path.found ? path.addrs.size() - 1 : 0;
    std::vector<Addr> shadows(copies + (fresh ? 1 : 0), kNullAddr);
    const std::optional<TxId> tx =
        heap_.beginShadows(ctx, tid, shadows, sizeof(MapEntry));
    if (!tx)
        return false;

    // Build back to front so each shadow can point at the next one;
    // the suffix below the found node is shared, not copied.
    Addr below = path.found ? path.nodes.back().next : path.head;
    if (fresh) {
        MapEntry e = *fresh;
        e.next = below;
        storeNode(ctx, shadows[copies], brokenCommit_ ? brokenStale(e) : e,
                  /*fresh_payload=*/true);
        below = shadows[copies];
    }
    for (std::size_t i = copies; i-- > 0;) {
        MapEntry e = path.nodes[i];
        e.next = below;
        storeNode(ctx, shadows[i], e, /*fresh_payload=*/false);
        below = shadows[i];
    }

    root_.commit(ctx, bucket, path.head, below);
    if (fresh && brokenCommit_) {
        // Injected broken commit: what just became durable behind the
        // CAS is the sentinel twin; patch the real payload in without
        // a flush so a power cut quietly reverts the node to a
        // validating-but-never-written value.
        const Addr node = shadows[copies];
        for (std::uint64_t i = 0; i < kValWords; i++)
            ctx.store(node + offsetof(MapEntry, vals) + i * 8,
                      &fresh->vals[i], 8, DataClass::User);
        ctx.store(node + offsetof(MapEntry, checksum), &fresh->checksum,
                  8, DataClass::TxMeta);
    }
    if (path.found)
        for (const Addr old : path.addrs)
            heap_.retire(ctx, tid, old);
    ctx.txEnd(*tx);
    return true;
}

bool
ModHashmap::put(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                const std::uint64_t *vals, bool &inserted)
{
    const std::uint64_t bucket = bucketOf(key);
    // The stripe lock is taken before the head is read, so the head
    // cannot move under this writer and the commit CAS must succeed;
    // its only job is to pin the expected value.
    std::lock_guard<std::mutex> guard(stripes_[stripeOf(bucket)]);
    const ChainPath path = walk(ctx, bucket, key);
    inserted = !path.found;
    MapEntry fresh{};
    fresh.key = key;
    std::copy_n(vals, kValWords, fresh.vals);
    fresh.checksum = nodeChecksum(key, fresh.vals, kValWords);
    return rewrite(ctx, tid, bucket, path, &fresh);
}

bool
ModHashmap::remove(pm::PmContext &ctx, ThreadId tid, std::uint64_t key)
{
    const std::uint64_t bucket = bucketOf(key);
    std::lock_guard<std::mutex> guard(stripes_[stripeOf(bucket)]);
    const ChainPath path = walk(ctx, bucket, key);
    return path.found && rewrite(ctx, tid, bucket, path, nullptr);
}

bool
ModHashmap::lookup(pm::PmContext &ctx, std::uint64_t key,
                   std::uint64_t *vals)
{
    // Lock-free: the head is an atomic 8-byte slot and every node
    // behind it is immutable; grace periods keep superseded nodes
    // alive until all racing readers have quiesced.
    Addr cur = root_.load(ctx, bucketOf(key));
    std::uint64_t steps = 0;
    while (cur != kNullAddr) {
        panic_if(++steps > kMaxChain, "mod hashmap: chain cycle");
        MapEntry e{};
        ctx.load(cur, &e, sizeof(e));
        if (e.key == key) {
            for (std::uint64_t i = 0; i < kValWords; i++)
                vals[i] = e.vals[i];
            return true;
        }
        cur = e.next;
    }
    return false;
}

bool
ModHashmap::check(pm::PmContext &ctx, std::string *why)
{
    if (!root_.checkHeader(ctx, kMagic, "mod hashmap", why))
        return false;
    for (std::uint64_t b = 0; b < root_.slotCount(); b++) {
        Addr cur = root_.load(ctx, b);
        std::uint64_t steps = 0;
        while (cur != kNullAddr) {
            if (++steps > kMaxChain) {
                if (why)
                    *why = "mod hashmap: chain cycle";
                return false;
            }
            if (!heap_.isBlockStart(cur)) {
                if (why)
                    *why = "mod hashmap: chain names a non-node offset";
                return false;
            }
            MapEntry e{};
            ctx.load(cur, &e, sizeof(e));
            if (!entryValid(e)) {
                if (why)
                    *why = "mod hashmap: entry checksum mismatch";
                return false;
            }
            if (bucketOf(e.key) != b) {
                if (why)
                    *why = "mod hashmap: key in wrong bucket";
                return false;
            }
            cur = e.next;
        }
    }
    return true;
}

void
ModHashmap::reachable(pm::PmContext &ctx, std::vector<Addr> &out)
{
    for (std::uint64_t b = 0; b < root_.slotCount(); b++) {
        Addr cur = root_.load(ctx, b);
        std::uint64_t steps = 0;
        while (cur != kNullAddr && heap_.isBlockStart(cur)) {
            panic_if(++steps > kMaxChain, "mod hashmap: chain cycle");
            out.push_back(cur);
            MapEntry e{};
            ctx.load(cur, &e, sizeof(e));
            cur = e.next;
        }
    }
}

std::uint64_t
ModHashmap::countReachable(pm::PmContext &ctx)
{
    std::vector<Addr> all;
    reachable(ctx, all);
    return all.size();
}

void
ModHashmap::scrub(pm::PmContext &ctx, std::vector<LineAddr> &lines,
                  core::VerifyReport &report)
{
    root_.scrub(ctx, kMagic, lines, report,
                "bucket line(s) lost to media faults; affected buckets "
                "emptied");
    if (lines.empty())
        return;
    // Any poisoned heap line was zero-filled, so a corrupted node
    // fails its entry CRC; truncate each chain at the first such node
    // by nulling the predecessor link (next is excluded from the
    // entry checksum, so the rewrite is safe).
    std::vector<LineAddr> cut_lines;
    for (std::uint64_t b = 0; b < root_.slotCount(); b++) {
        Addr prev_link = root_.slotOff(b);
        Addr cur = root_.load(ctx, b);
        std::uint64_t steps = 0;
        while (cur != kNullAddr) {
            panic_if(++steps > kMaxChain,
                     "mod hashmap: chain cycle during scrub");
            MapEntry e{};
            bool ok = heap_.isBlockStart(cur);
            if (ok) {
                ctx.load(cur, &e, sizeof(e));
                ok = entryValid(e);
            }
            if (!ok) {
                ctx.store(prev_link, &kNullAddr, 8, DataClass::TxMeta);
                ctx.persist(prev_link, 8);
                cut_lines.push_back(lineOf(cur));
                break;
            }
            prev_link = cur + offsetof(MapEntry, next);
            cur = e.next;
        }
    }
    if (!cut_lines.empty()) {
        report.degrade("mod-chain-corrupt",
                       std::to_string(cut_lines.size()) +
                           " chain(s) truncated at a corrupt node",
                       cut_lines);
    }
}

} // namespace whisper::mod
