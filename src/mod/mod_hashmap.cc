#include "mod/mod_hashmap.hh"

#include <algorithm>
#include <cstddef>

#include "common/crc32.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "core/verify_report.hh"

namespace whisper::mod
{

using pm::DataClass;
using pm::FenceKind;

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
    s.checksum = ModHashmap::entryChecksum(s.key, s.vals);
    return s;
}

} // namespace

std::uint64_t
ModHashmap::entryChecksum(std::uint64_t key, const std::uint64_t *vals)
{
    // Two chained CRC32 passes over key and payload fill the 64-bit
    // field; a zero-filled (scrubbed) node can never validate. The
    // next pointer is deliberately excluded: a shadow path-copy
    // rewrites next but must not have to re-derive payload checksums.
    std::uint64_t buf[1 + kValWords];
    buf[0] = key;
    for (std::uint64_t i = 0; i < kValWords; i++)
        buf[1 + i] = vals[i];
    const std::uint32_t lo = crc32(buf, sizeof(buf));
    const std::uint32_t hi = crc32Update(lo, buf, sizeof(buf));
    return static_cast<std::uint64_t>(hi) << 32 | lo;
}

std::uint64_t
ModHashmap::headerCrc(std::uint64_t bucket_count)
{
    const std::uint64_t hdr[2] = {kMagic, bucket_count};
    return crc32(hdr, sizeof(hdr));
}

ModHashmap::ModHashmap(pm::PmContext &ctx, ModHeap &heap,
                       Addr table_off, std::uint64_t bucket_count,
                       unsigned partitions, bool broken_commit)
    : heap_(heap), tableOff_(table_off), bucketCount_(bucket_count),
      partitions_(partitions), brokenCommit_(broken_commit),
      stripes_(std::make_unique<std::mutex[]>(partitions *
                                              kStripesPerPartition))
{
    panic_if(partitions_ == 0 || bucketCount_ % partitions_ != 0,
             "mod hashmap: buckets must split evenly over partitions");
    ctx.store(tableOff_, &kMagic, 8, DataClass::TxMeta);
    ctx.store(tableOff_ + 8, &bucketCount_, 8, DataClass::TxMeta);
    const std::uint64_t crc = headerCrc(bucketCount_);
    ctx.store(tableOff_ + 16, &crc, 8, DataClass::TxMeta);
    for (std::uint64_t b = 0; b < bucketCount_; b++)
        ctx.store(bucketOff(b), &kNullAddr, 8, DataClass::TxMeta);
    ctx.flush(tableOff_, tableBytes(bucketCount_));
    ctx.fence(FenceKind::Durability);
}

ModHashmap::ModHashmap(ModHeap &heap, Addr table_off,
                       std::uint64_t bucket_count, unsigned partitions,
                       bool broken_commit)
    : heap_(heap), tableOff_(table_off), bucketCount_(bucket_count),
      partitions_(partitions), brokenCommit_(broken_commit),
      stripes_(std::make_unique<std::mutex[]>(partitions *
                                              kStripesPerPartition))
{
    panic_if(partitions_ == 0 || bucketCount_ % partitions_ != 0,
             "mod hashmap: buckets must split evenly over partitions");
}

std::uint64_t
ModHashmap::bucketOf(std::uint64_t key) const
{
    const std::uint64_t per = bucketCount_ / partitions_;
    const std::uint64_t part = (key >> 48) % partitions_;
    return part * per + mix64(key) % per;
}

Addr
ModHashmap::bucketOff(std::uint64_t bucket) const
{
    panic_if(bucket >= bucketCount_,
             "mod hashmap: bucket out of range");
    return tableOff_ + kHeaderBytes + bucket * 8;
}

std::uint64_t
ModHashmap::stripeOf(std::uint64_t bucket) const
{
    // Partition-local: a bucket's stripe lives in its partition's own
    // block of kStripesPerPartition locks, so writers in different
    // partitions (== different threads under the partitioned
    // workloads) can never contend, no matter how buckets hash.
    const std::uint64_t per = bucketCount_ / partitions_;
    return (bucket / per) * kStripesPerPartition +
           (bucket % per) % kStripesPerPartition;
}

Addr
ModHashmap::loadBucket(pm::PmContext &ctx, std::uint64_t bucket)
{
    Addr off = kNullAddr;
    ctx.load(bucketOff(bucket), &off, 8);
    return off;
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

bool
ModHashmap::put(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                const std::uint64_t *vals, bool &inserted)
{
    const std::uint64_t bucket = bucketOf(key);
    // The stripe lock is taken before the head is read, so the head
    // cannot move under this writer and the commit CAS below must
    // succeed; its only job is to pin the expected value.
    std::lock_guard<std::mutex> guard(stripes_[stripeOf(bucket)]);
    const Addr head = loadBucket(ctx, bucket);

    // Find the key; remember the chain prefix that must be
    // shadow-copied when this turns out to be an update.
    std::vector<Addr> path;
    std::vector<MapEntry> nodes;
    Addr cur = head;
    bool found = false;
    while (cur != kNullAddr) {
        panic_if(path.size() > kMaxChain, "mod hashmap: chain cycle");
        MapEntry e{};
        ctx.load(cur, &e, sizeof(e));
        path.push_back(cur);
        nodes.push_back(e);
        if (e.key == key) {
            found = true;
            break;
        }
        cur = e.next;
    }
    inserted = !found;

    const std::size_t fresh_count = found ? path.size() : 1;
    const TxId tx = ctx.txBegin();
    std::vector<Addr> shadows(fresh_count, kNullAddr);
    for (std::size_t i = 0; i < fresh_count; i++) {
        shadows[i] = heap_.alloc(ctx, sizeof(MapEntry));
        if (shadows[i] == kNullAddr) {
            // Exhausted: the nodes already carved out are unreachable,
            // so parking them on the garbage lane reclaims them at the
            // next durability point.
            for (std::size_t j = 0; j < i; j++)
                heap_.retire(ctx, tid, shadows[j]);
            ctx.txAbort(tx);
            return false;
        }
    }

    MapEntry fresh_entry{};
    if (!found) {
        // Insert at head: one fresh node in front of the old chain.
        MapEntry e{};
        e.key = key;
        e.next = head;
        for (std::uint64_t i = 0; i < kValWords; i++)
            e.vals[i] = vals[i];
        e.checksum = entryChecksum(e.key, e.vals);
        fresh_entry = e;
        storeNode(ctx, shadows[0], brokenCommit_ ? brokenStale(e) : e,
                  /*fresh_payload=*/true);
    } else {
        // Update: functional path copy. Build back-to-front so each
        // shadow can point at the next one; the replaced node's copy
        // carries the fresh payload and shares the untouched suffix.
        Addr below = nodes.back().next;
        for (std::size_t i = fresh_count; i-- > 0;) {
            MapEntry e = nodes[i];
            e.next = below;
            const bool fresh = i + 1 == fresh_count;
            if (fresh) {
                for (std::uint64_t v = 0; v < kValWords; v++)
                    e.vals[v] = vals[v];
                e.checksum = entryChecksum(e.key, e.vals);
                fresh_entry = e;
            }
            storeNode(ctx, shadows[i],
                      fresh && brokenCommit_ ? brokenStale(e) : e,
                      fresh);
            below = shadows[i];
        }
    }

    // The one ordering point: every shadow node (and the bitmap words
    // their allocations dirtied) durable before the commit swap.
    ctx.fence(FenceKind::Ordering);

    panic_if(!ctx.casStore(bucketOff(bucket), head, shadows[0],
                           DataClass::TxMeta),
             "mod hashmap: commit CAS lost despite stripe lock");
    ctx.flush(bucketOff(bucket), 8);
    if (brokenCommit_) {
        // Injected broken commit: what just became durable behind the
        // CAS is the sentinel twin; patch the real payload in without
        // a flush so a power cut quietly reverts the node to a
        // validating-but-never-written value.
        const Addr node = shadows[fresh_count - 1];
        for (std::uint64_t i = 0; i < kValWords; i++)
            ctx.store(node + offsetof(MapEntry, vals) + i * 8,
                      &fresh_entry.vals[i], 8, DataClass::User);
        ctx.store(node + offsetof(MapEntry, checksum),
                  &fresh_entry.checksum, 8, DataClass::TxMeta);
    }
    if (found)
        for (std::size_t i = 0; i < fresh_count; i++)
            heap_.retire(ctx, tid, path[i]);
    ctx.txEnd(tx);
    return true;
}

bool
ModHashmap::remove(pm::PmContext &ctx, ThreadId tid, std::uint64_t key)
{
    const std::uint64_t bucket = bucketOf(key);
    std::lock_guard<std::mutex> guard(stripes_[stripeOf(bucket)]);
    const Addr head = loadBucket(ctx, bucket);

    std::vector<Addr> path;
    std::vector<MapEntry> nodes;
    Addr cur = head;
    bool found = false;
    while (cur != kNullAddr) {
        panic_if(path.size() > kMaxChain, "mod hashmap: chain cycle");
        MapEntry e{};
        ctx.load(cur, &e, sizeof(e));
        path.push_back(cur);
        nodes.push_back(e);
        if (e.key == key) {
            found = true;
            break;
        }
        cur = e.next;
    }
    if (!found)
        return false;

    // Shadow-copy the predecessors (the removed node's copy is the
    // splice itself, so one fewer node than the path).
    const std::size_t copies = path.size() - 1;
    const TxId tx = ctx.txBegin();
    std::vector<Addr> shadows(copies, kNullAddr);
    for (std::size_t i = 0; i < copies; i++) {
        shadows[i] = heap_.alloc(ctx, sizeof(MapEntry));
        if (shadows[i] == kNullAddr) {
            for (std::size_t j = 0; j < i; j++)
                heap_.retire(ctx, tid, shadows[j]);
            ctx.txAbort(tx);
            return false;
        }
    }

    Addr below = nodes.back().next; // suffix past the removed node
    for (std::size_t i = copies; i-- > 0;) {
        MapEntry e = nodes[i];
        e.next = below;
        storeNode(ctx, shadows[i], e, /*fresh_payload=*/false);
        below = shadows[i];
    }

    ctx.fence(FenceKind::Ordering);

    const Addr new_head = copies ? shadows[0] : nodes.back().next;
    panic_if(!ctx.casStore(bucketOff(bucket), head, new_head,
                           DataClass::TxMeta),
             "mod hashmap: commit CAS lost despite stripe lock");
    ctx.flush(bucketOff(bucket), 8);
    for (Addr old : path)
        heap_.retire(ctx, tid, old);
    ctx.txEnd(tx);
    return true;
}

bool
ModHashmap::lookup(pm::PmContext &ctx, std::uint64_t key,
                   std::uint64_t *vals)
{
    // Lock-free: the head is an atomic 8-byte slot and every node
    // behind it is immutable; grace periods keep superseded nodes
    // alive until all racing readers have quiesced.
    Addr cur = loadBucket(ctx, bucketOf(key));
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
    std::uint64_t hdr[3] = {};
    ctx.load(tableOff_, hdr, sizeof(hdr));
    if (hdr[0] != kMagic) {
        if (why)
            *why = "mod hashmap: bad table magic";
        return false;
    }
    if (hdr[1] != bucketCount_ || hdr[2] != headerCrc(bucketCount_)) {
        if (why)
            *why = "mod hashmap: table header CRC mismatch";
        return false;
    }
    for (std::uint64_t b = 0; b < bucketCount_; b++) {
        Addr cur = loadBucket(ctx, b);
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
            if (e.checksum != entryChecksum(e.key, e.vals)) {
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
    for (std::uint64_t b = 0; b < bucketCount_; b++) {
        Addr cur = loadBucket(ctx, b);
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
    if (lines.empty())
        return;
    const Addr table_end = tableOff_ + tableBytes(bucketCount_);
    const LineAddr t_first = lineOf(tableOff_);
    const LineAddr t_last = lineOf(table_end - 1);

    // Phase 1 — table lines. The header is fully redundant (attach
    // parameters), so it is rewritten silently; bucket slots have no
    // second copy, so a lost slot becomes an empty bucket and the
    // chain behind it bounded, *declared* data loss.
    std::vector<LineAddr> table_lines;
    std::vector<LineAddr> node_lines;
    for (const LineAddr line : lines) {
        (line >= t_first && line <= t_last ? table_lines : node_lines)
            .push_back(line);
    }
    std::vector<LineAddr> root_lost;
    for (const LineAddr line : table_lines) {
        const Addr lo = std::max<Addr>(line << kCacheLineBits,
                                       tableOff_);
        const Addr hi = std::min<Addr>((line + 1) << kCacheLineBits,
                                       table_end);
        for (Addr off = lo; off < hi; off += 8) {
            if (off == tableOff_) {
                ctx.store(off, &kMagic, 8, DataClass::TxMeta);
            } else if (off == tableOff_ + 8) {
                ctx.store(off, &bucketCount_, 8, DataClass::TxMeta);
            } else if (off == tableOff_ + 16) {
                const std::uint64_t crc = headerCrc(bucketCount_);
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
                       std::to_string(root_lost.size()) +
                           " bucket line(s) lost to media faults; "
                           "affected buckets emptied",
                       root_lost);
    }

    // Phase 2 — chain nodes. Any poisoned heap line was zero-filled,
    // so a corrupted node fails its entry CRC; truncate each chain at
    // the first such node by nulling the predecessor link (next is
    // excluded from the entry checksum, so the rewrite is safe).
    if (!node_lines.empty()) {
        std::uint64_t cut = 0;
        std::vector<LineAddr> cut_lines;
        for (std::uint64_t b = 0; b < bucketCount_; b++) {
            Addr prev_link = bucketOff(b);
            Addr cur = loadBucket(ctx, b);
            std::uint64_t steps = 0;
            while (cur != kNullAddr) {
                panic_if(++steps > kMaxChain,
                         "mod hashmap: chain cycle during scrub");
                MapEntry e{};
                bool ok = heap_.isBlockStart(cur);
                if (ok) {
                    ctx.load(cur, &e, sizeof(e));
                    ok = e.checksum == entryChecksum(e.key, e.vals);
                }
                if (!ok) {
                    ctx.store(prev_link, &kNullAddr, 8,
                              DataClass::TxMeta);
                    ctx.persist(prev_link, 8);
                    cut++;
                    cut_lines.push_back(lineOf(cur));
                    break;
                }
                prev_link = cur + offsetof(MapEntry, next);
                cur = e.next;
            }
        }
        if (cut) {
            report.degrade("mod-chain-corrupt",
                           std::to_string(cut) +
                               " chain(s) truncated at a corrupt node",
                           cut_lines);
        }
    }
    // Table lines are fully handled here; node-region lines are left
    // for the heap scrub (occupancy is rebuilt from reachability).
    lines = std::move(node_lines);
}

} // namespace whisper::mod
