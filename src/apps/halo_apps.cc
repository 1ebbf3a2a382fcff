/**
 * @file
 * The Hybrid-layer application: halo-hashmap.
 *
 * Runs the suite's standard micro-benchmark shape (the paper's
 * Figure 6 DRAM-heavy op loop) against the Halo hybrid store
 * (src/halo): every put/remove appends one CRC32-protected,
 * sequence-stamped record to a per-thread PM segment and updates a
 * DRAM-only extendible-hash directory; durability is one fence per
 * segment seal plus explicit durability points every
 * kDurabilityInterval ops. There is no PM log of any kind — recovery
 * is a parallel segment scan that rebuilds the directory from the
 * surviving records (last-writer-wins by sequence, tombstones
 * honored).
 *
 * The crash-recovery invariant this app checks is the hybrid layer's
 * contract (DESIGN.md §12): after the scan rebuild, every committed
 * pair is reachable (or its loss is a named media degradation), and
 * nothing is visible that was not genuinely written — the store's
 * volatile oracle journals every record written, so a torn or
 * fabricated record that slips past the CRC is still caught by
 * comparison against the journal.
 *
 * Thread discipline matches the MOD apps: keys carry their owning
 * lane in the top 16 bits and mutations are single-writer per
 * partition, so record images and the rebuilt index are independent
 * of thread interleaving (bit-identical fuzz digests). The same shape
 * gives it mod-hashmap's run() script and generated-workload surface
 * (PartitionedKvApp, partitioned_kv.hh); this file supplies the store
 * hooks, recovery and the hybrid layer's checks.
 */

#include <algorithm>
#include <string>

#include "apps/apps.hh"
#include "apps/partitioned_kv.hh"
#include "common/logging.hh"
#include "halo/halo_store.hh"

namespace whisper::apps
{

using namespace core;
using halo::HaloRecord;
using halo::HaloStore;

namespace
{

static_assert(halo::kValWords == 3,
              "runHashmap() puts three value words");

class HaloHashmapApp : public PartitionedKvApp<HaloStore>
{
  public:
    explicit HaloHashmapApp(const AppConfig &config)
        : PartitionedKvApp(config)
    {
        panic_if(config_.poolBytes <
                     config_.threads * 2 * halo::kSegmentBytes,
                 "halo-hashmap: pool too small for one segment range "
                 "per thread");
    }

    std::string name() const override { return "halo-hashmap"; }
    AccessLayer layer() const override { return AccessLayer::Hybrid; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        HaloStore &store = inst_[0];
        // The removes leave tombstones the recovery scan must honor.
        runHashmap(
            ctx, tid, 467,
            [&](std::uint64_t key, const std::uint64_t *vals) {
                Addr prior = kNullAddr;
                const bool was_insert = !store.indexLookup(key, prior);
                panic_if(!store.put(ctx, tid, key, vals),
                         "halo-hashmap: segment area exhausted");
                return was_insert;
            },
            [&](std::uint64_t key) {
                panic_if(!store.remove(ctx, tid, key),
                         "halo-hashmap: segment area exhausted");
            });
    }

    bool workloadHasRemove() const override { return true; }

  protected:
    /**
     * Nothing persistent to format: every index structure is DRAM,
     * and segment headers are written lazily at first open.
     */
    HaloStore
    format(pm::PmContext &ctx, Addr base, std::size_t bytes,
           bool workload) override
    {
        (void)ctx;
        HaloStore::Config cfg;
        cfg.base = base;
        cfg.bytes = bytes;
        cfg.threads = lanes(workload);
        HaloStore store(cfg);
        panic_if(workload && store.allocator().segmentsPerThread() *
                                     halo::kRecordsPerSegment <
                                 wlMap_.slotsPerThread(),
                 "halo-hashmap: pool too small for workload keys");
        return store;
    }

    void
    recoverInstance(pm::PmContext &ctx, HaloStore &store) override
    {
        store.recoverScan(ctx.pool(), 1);
    }

    /**
     * After a clean run: every committed pair readable as written.
     * After the rebuild scan: committed pairs reachable, nothing
     * visible that was not genuinely written.
     */
    void
    checkStructure(pm::PmContext &ctx, HaloStore &store, bool clean,
                   VerifyReport &rep) override
    {
        const pm::PmPool &pool = ctx.pool();
        if (clean) {
            for (unsigned t = 0; t < store.threads(); t++) {
                const ThreadId tid = static_cast<ThreadId>(t);
                rep.check(store.nextCounter(tid) > 0, "seq-monotonic",
                          "sequence counter wrapped");
                // After threadExit every batch has been fenced.
                for (const auto &[key, c] : store.committed(tid)) {
                    std::uint64_t vals[halo::kValWords];
                    const bool found = store.get(ctx, key, vals);
                    const bool ok =
                        c.tombstone
                            ? rep.check(!found, "tombstone-respected",
                                        "removed key still readable")
                            : rep.check(
                                  found && std::equal(vals,
                                                      vals + halo::kValWords,
                                                      c.vals),
                                  "committed-pair-readable",
                                  "key " + std::to_string(key));
                    if (!ok)
                        break;
                }
            }
            checkIndexBacking(pool, store, rep);
            return;
        }
        // Committed pairs reachable. A fenced record's line is always
        // in the durable image; only a media fault can take it, and
        // the scrub has already degraded that loss by name.
        for (unsigned t = 0; t < store.threads(); t++) {
            const ThreadId tid = static_cast<ThreadId>(t);
            for (const auto &[key, c] : store.committed(tid)) {
                if (c.addr != kNullAddr &&
                    store.lineLost(lineOf(c.addr)))
                    continue; // excused: pm-line-lost degradation
                if (!checkCommitted(pool, store, tid, key, c, rep))
                    break;
            }
        }

        // Nothing visible that was not genuinely written: every index
        // entry and every applied tombstone must match the oracle's
        // journal of real writes bit for bit.
        bool more = true;
        store.forEachIndexed([&](std::uint64_t key, Addr addr) {
            if (more)
                more = checkGenuine(pool, store, key, addr, rep);
        });
        for (unsigned t = 0; t < store.threads() && more; t++) {
            const ThreadId tid = static_cast<ThreadId>(t);
            for (const auto &[key, seq] :
                 store.recoveredTombstones(tid)) {
                HaloStore::WrittenOp w;
                if (!rep.check(
                        HaloRecord::ownerOfSeq(seq) == tid &&
                            store.writtenOp(
                                tid, HaloRecord::counterOfSeq(seq),
                                w) &&
                            w.tombstone && w.key == key,
                        "phantom-tombstone",
                        "recovered tombstone never written")) {
                    more = false;
                    break;
                }
            }
        }
    }

    void
    checkLayer(pm::PmContext &ctx, HaloStore &store,
               VerifyReport &rep) override
    {
        for (unsigned t = 0; t < store.threads(); t++) {
            const ThreadId tid = static_cast<ThreadId>(t);
            rep.check(store.nextCounter(tid) >
                          store.maxRecoveredCounter(tid),
                      "seq-monotonic",
                      "sequence counter resumed at or below a "
                      "recovered record");
        }
        checkIndexBacking(ctx.pool(), store, rep);
    }

    bool
    read(pm::PmContext &ctx, HaloStore &store, ThreadId tid,
         std::uint64_t key, std::uint64_t &value) override
    {
        (void)tid;
        std::uint64_t vals[halo::kValWords];
        if (!store.get(ctx, key, vals))
            return false;
        value = vals[0];
        return true;
    }

    void
    write(pm::PmContext &ctx, HaloStore &store, ThreadId tid,
          std::uint64_t key, std::uint64_t value) override
    {
        const std::uint64_t vals[halo::kValWords] = {value, key, tid};
        panic_if(!store.put(ctx, 0, key, vals),
                 "halo-hashmap: segment area exhausted");
    }

    bool
    erase(pm::PmContext &ctx, HaloStore &store, ThreadId tid,
          std::uint64_t key) override
    {
        (void)tid;
        // remove() always appends a tombstone and reports exhaustion,
        // not presence: ask the index whether the key was there.
        std::uint64_t vals[halo::kValWords];
        const bool found = store.get(ctx, key, vals);
        panic_if(!store.remove(ctx, 0, key),
                 "halo-hashmap: segment area exhausted");
        return found;
    }

    void
    durabilityPoint(pm::PmContext &ctx, HaloStore &store,
                    ThreadId lane) override
    {
        store.durabilityPoint(ctx, lane);
    }

    void
    threadExit(pm::PmContext &ctx, HaloStore &store,
               ThreadId lane) override
    {
        store.threadExit(ctx, lane);
    }

    void
    scrubInstance(pm::PmContext &ctx, HaloStore &store,
                  std::vector<LineAddr> &lines, VerifyReport &rep) override
    {
        (void)ctx;
        // Claim every line inside the segment area. There is nothing
        // to repair — records are independent, so a lost line costs
        // exactly the records it held — but the loss is noted so
        // the recovered check can excuse those records, and degraded
        // here with its record count.
        std::vector<LineAddr> claimed;
        auto inArea = [&](LineAddr line) {
            const Addr addr = static_cast<Addr>(line)
                              << kCacheLineBits;
            return store.allocator().segmentOf(addr) !=
                   ~std::uint64_t(0);
        };
        for (const LineAddr line : lines) {
            if (inArea(line))
                claimed.push_back(line);
        }
        if (claimed.empty())
            return;
        const std::size_t records = store.noteLostLines(claimed);
        lines.erase(std::remove_if(lines.begin(), lines.end(),
                                   inArea),
                    lines.end());
        rep.degrade("pm-line-lost",
                    std::to_string(claimed.size()) +
                        " segment line(s) lost to media faults (" +
                        std::to_string(records) +
                        " record slot(s)); affected records dropped "
                        "from the rebuild",
                    claimed);
    }

  private:
    /** Every index entry names a valid record in a used segment. */
    static void
    checkIndexBacking(const pm::PmPool &pool, const HaloStore &store,
                      VerifyReport &rep)
    {
        bool more = true;
        store.forEachIndexed([&](std::uint64_t key, Addr addr) {
            if (!more)
                return;
            HaloRecord rec;
            if (!rep.check(store.recordAt(pool, addr, rec) &&
                               rec.key == key,
                           "index-record-match",
                           "index entry names no valid record")) {
                more = false;
                return;
            }
            const std::uint64_t seg = store.allocator().segmentOf(addr);
            more = rep.check(store.allocator().segmentUsed(seg),
                             "index-addr-allocated",
                             "index entry in an unused segment");
        });
    }

    /** One committed key's post-recovery obligation. */
    static bool
    checkCommitted(const pm::PmPool &pool, const HaloStore &store,
                   ThreadId tid, std::uint64_t key,
                   const HaloStore::CommitState &c, VerifyReport &rep)
    {
        Addr addr = kNullAddr;
        const bool present = store.indexLookup(key, addr);
        if (c.tombstone) {
            if (!present)
                return true;
            HaloRecord rec;
            if (!rep.check(store.recordAt(pool, addr, rec),
                           "index-dangling",
                           "index entry unreadable after rebuild"))
                return false;
            // A later genuine write may legitimately revive the key
            // (a fully-written unfenced record can survive via cache
            // eviction); an older one beaten by the tombstone cannot.
            return rep.check(rec.seq > c.seq, "tombstone-resurrected",
                             "committed remove undone by an older "
                             "record");
        }
        if (!present) {
            const auto &tombs = store.recoveredTombstones(tid);
            const auto it = tombs.find(key);
            if (it != tombs.end() && it->second > c.seq)
                return true; // later tombstone survived: legitimate
            return rep.check(false, "committed-pair-missing",
                             "committed key " + std::to_string(key) +
                                 " unreachable after rebuild");
        }
        HaloRecord rec;
        if (!rep.check(store.recordAt(pool, addr, rec),
                       "index-dangling",
                       "index entry unreadable after rebuild"))
            return false;
        if (!rep.check(rec.seq >= c.seq, "committed-pair-stale",
                       "rebuild surfaced a record older than the "
                       "committed one"))
            return false;
        if (rec.seq > c.seq)
            return true; // later genuine write won; checked by sweep
        return rep.check(!rec.tombstone() && addr == c.addr &&
                             std::equal(rec.vals,
                                        rec.vals + halo::kValWords,
                                        c.vals),
                         "committed-pair-torn",
                         "committed key " + std::to_string(key) +
                             " recovered with wrong content");
    }

    /** One index entry's genuineness against the written journal. */
    static bool
    checkGenuine(const pm::PmPool &pool, const HaloStore &store,
                 std::uint64_t key, Addr addr, VerifyReport &rep)
    {
        HaloRecord rec;
        if (!rep.check(store.recordAt(pool, addr, rec),
                       "index-dangling",
                       "index entry unreadable after rebuild"))
            return false;
        const ThreadId tid = HaloRecord::ownerOfSeq(rec.seq);
        HaloStore::WrittenOp w;
        return rep.check(
            tid < store.threads() && rec.key == key &&
                HaloStore::partitionOf(key) == tid &&
                store.writtenOp(
                    tid, HaloRecord::counterOfSeq(rec.seq), w) &&
                w.key == key && !w.tombstone &&
                std::equal(w.vals, w.vals + halo::kValWords,
                           rec.vals),
            "phantom-record",
            "visible record was never genuinely written");
    }
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeHaloHashmapApp(const core::AppConfig &config)
{
    return std::make_unique<HaloHashmapApp>(config);
}

} // namespace whisper::apps
