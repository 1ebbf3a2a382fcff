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
 * thread in the top 16 bits and mutations are single-writer per
 * partition, so record images and the rebuilt index are independent
 * of thread interleaving (bit-identical fuzz digests).
 */

#include <algorithm>
#include <string>

#include "apps/apps.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "halo/halo_store.hh"

namespace whisper::apps
{

using namespace core;
using halo::HaloRecord;
using halo::HaloStore;

namespace
{

/** Ops between durability points (one batched fence each). */
constexpr std::uint64_t kDurabilityInterval = 16;

LineAddr
lineOf(Addr addr)
{
    return static_cast<LineAddr>(addr >> kCacheLineBits);
}

class HaloHashmapApp : public WhisperApp
{
  public:
    explicit HaloHashmapApp(const AppConfig &config)
        : WhisperApp(config)
    {
        panic_if(config_.poolBytes <
                     config_.threads * 2 * halo::kSegmentBytes,
                 "halo-hashmap: pool too small for one segment range "
                 "per thread");
    }

    std::string name() const override { return "halo-hashmap"; }
    AccessLayer layer() const override { return AccessLayer::Hybrid; }

    void
    setup(Runtime &rt) override
    {
        (void)rt;
        // Nothing persistent to format: every index structure is
        // DRAM, and segment headers are written lazily at first open.
        store_ = std::make_unique<HaloStore>(storeConfig());
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 467 + tid);
        // Small enough that keys repeat: most puts are updates, and
        // the 10% removes leave tombstones the recovery scan must
        // honor.
        const std::uint64_t keyspace = config_.opsPerThread + 64;
        std::vector<std::uint64_t> inserted;
        inserted.reserve(config_.opsPerThread);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            // Paper Fig. 6 proportions: the op is mostly DRAM work.
            ctx.vBurst(inserted.data(), 1 << 14, 560, 240);
            ctx.compute(6500);

            if (!inserted.empty() && rng.chance(0.1)) {
                const std::size_t idx = rng.next(inserted.size());
                panic_if(!store_->remove(ctx, tid, inserted[idx]),
                         "halo-hashmap: segment area exhausted");
                inserted[idx] = inserted.back();
                inserted.pop_back();
                ctx.vStore(inserted.data() + idx, 8);
            } else {
                const std::uint64_t key =
                    HaloStore::makeKey(tid, rng.next(keyspace));
                Addr prior = kNullAddr;
                const bool was_insert =
                    !store_->indexLookup(key, prior);
                const std::uint64_t vals[halo::kValWords] = {
                    rng(), rng(), rng()};
                panic_if(!store_->put(ctx, tid, key, vals),
                         "halo-hashmap: segment area exhausted");
                if (was_insert) {
                    inserted.push_back(key);
                    ctx.vStore(&inserted.back(), 8);
                }
            }
            if ((op + 1) % kDurabilityInterval == 0)
                store_->durabilityPoint(ctx, tid);
        }
        store_->threadExit(ctx, tid);
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        pm::PmContext &ctx = rt.ctx(0);
        for (unsigned t = 0; t < store_->threads(); t++) {
            const ThreadId tid = static_cast<ThreadId>(t);
            rep.check(store_->nextCounter(tid) > 0, "seq-monotonic",
                      "sequence counter wrapped");
            // After threadExit every batch has been fenced.
            for (const auto &[key, c] : store_->committed(tid)) {
                std::uint64_t vals[halo::kValWords];
                const bool found = store_->get(ctx, key, vals);
                if (c.tombstone) {
                    if (!rep.check(!found, "tombstone-respected",
                                   "removed key still readable"))
                        break;
                } else if (!rep.check(found &&
                                          std::equal(vals, vals +
                                                         halo::kValWords,
                                                     c.vals),
                                      "committed-pair-readable",
                                      "key " + std::to_string(key)))
                    break;
            }
        }
        checkIndexBacking(rt, rep);
        return rep;
    }

    void
    recover(Runtime &rt) override
    {
        store_->recoverScan(rt.pool(), 1);
    }

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        VerifyReport rep = report();
        const pm::PmPool &pool = rt.pool();

        // Committed pairs reachable. A fenced record's line is always
        // in the durable image; only a media fault can take it, and
        // the scrub has already degraded that loss by name.
        for (unsigned t = 0; t < store_->threads(); t++) {
            const ThreadId tid = static_cast<ThreadId>(t);
            for (const auto &[key, c] : store_->committed(tid)) {
                if (c.addr != kNullAddr &&
                    store_->lineLost(lineOf(c.addr)))
                    continue; // excused: pm-line-lost degradation
                if (!checkCommitted(pool, tid, key, c, rep))
                    break;
            }
        }

        // Nothing visible that was not genuinely written: every index
        // entry and every applied tombstone must match the oracle's
        // journal of real writes bit for bit.
        bool more = true;
        store_->forEachIndexed([&](std::uint64_t key, Addr addr) {
            if (more)
                more = checkGenuine(pool, key, addr, rep);
        });
        for (unsigned t = 0; t < store_->threads() && more; t++) {
            const ThreadId tid = static_cast<ThreadId>(t);
            for (const auto &[key, seq] :
                 store_->recoveredTombstones(tid)) {
                HaloStore::WrittenOp w;
                if (!rep.check(
                        HaloRecord::ownerOfSeq(seq) == tid &&
                            store_->writtenOp(
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
        return rep;
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (unsigned t = 0; t < store_->threads(); t++) {
            const ThreadId tid = static_cast<ThreadId>(t);
            rep.check(store_->nextCounter(tid) >
                          store_->maxRecoveredCounter(tid),
                      "seq-monotonic",
                      "sequence counter resumed at or below a "
                      "recovered record");
        }
        checkIndexBacking(rt, rep);
        return rep;
    }

    /** @{ \name Generated-workload surface
     *
     * The MOD key convention carries over: thread @p tid owns every
     * key whose top 16 bits equal tid, matching the store's
     * single-writer partitions. Durability points keep the run()
     * cadence (every kDurabilityInterval ops).
     */

    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map) override
    {
        wlMap_ = map;
        store_ = std::make_unique<HaloStore>(storeConfig());
        const std::uint64_t capacity =
            store_->allocator().segmentsPerThread() *
            halo::kRecordsPerSegment;
        panic_if(capacity < map.slotsPerThread(),
                 "halo-hashmap: pool too small for workload keys");
        scratch_.assign(config_.threads,
                        std::vector<std::uint64_t>(2048));
        wlOps_.assign(config_.threads, 0);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const ThreadId tid = static_cast<ThreadId>(t);
            for (std::uint64_t i = 0; i < map.perThread(); i++) {
                const std::uint64_t key = map.lo(tid) + i;
                const std::uint64_t vals[halo::kValWords] = {
                    key * 0x9e3779b97f4a7c15ull, key, tid};
                panic_if(!store_->put(ctx, tid,
                                      HaloStore::makeKey(tid, key),
                                      vals),
                         "halo-hashmap: segment area exhausted "
                         "during preload");
                if ((i + 1) % kDurabilityInterval == 0)
                    store_->durabilityPoint(ctx, tid);
            }
            store_->durabilityPoint(ctx, tid);
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, tid);
        std::uint64_t vals[halo::kValWords];
        const bool found =
            store_->get(ctx, HaloStore::makeKey(tid, key), vals);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, tid);
        const std::uint64_t vals[halo::kValWords] = {value, key, tid};
        panic_if(!store_->put(ctx, tid, HaloStore::makeKey(tid, key),
                              vals),
                 "halo-hashmap: segment area exhausted");
        opDone(ctx, tid);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, tid);
        std::uint64_t vals[halo::kValWords] = {0, key, tid};
        const bool found =
            store_->get(ctx, HaloStore::makeKey(tid, key), vals);
        vals[0] += delta;
        panic_if(!store_->put(ctx, tid, HaloStore::makeKey(tid, key),
                              vals),
                 "halo-hashmap: segment area exhausted");
        opDone(ctx, tid);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, tid);
        std::uint64_t found = 0;
        std::uint64_t vals[halo::kValWords];
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = wlMap_.scanKey(tid, key, j);
            if (store_->get(ctx, HaloStore::makeKey(tid, k), vals))
                found++;
        }
        opDone(ctx, tid);
        return found;
    }

    void
    workloadThreadDone(pm::PmContext &ctx, ThreadId tid) override
    {
        store_->threadExit(ctx, tid);
    }

    VerifyReport
    workloadCheck(Runtime &rt) override
    {
        return verify(rt);
    }

    bool supportsLincheck() const override { return true; }

    bool
    workloadProbe(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                  std::uint64_t &value) override
    {
        std::uint64_t vals[halo::kValWords];
        if (!store_->get(ctx, HaloStore::makeKey(tid, key), vals))
            return false;
        value = vals[0];
        return true;
    }

    bool workloadHasRemove() const override { return true; }

    bool
    workloadRemove(pm::PmContext &ctx, ThreadId tid,
                   std::uint64_t key) override
    {
        pad(ctx, tid);
        // The store's remove() reports segment exhaustion, not
        // presence (it always appends a tombstone); answer the
        // KV-level "was it there" from the index first.
        std::uint64_t vals[halo::kValWords];
        const bool found =
            store_->get(ctx, HaloStore::makeKey(tid, key), vals);
        panic_if(!store_->remove(ctx, tid, HaloStore::makeKey(tid, key)),
                 "halo-hashmap: segment area exhausted");
        opDone(ctx, tid);
        return found;
    }

    /** @} */

    /** The store, for tests that inspect layer internals. */
    HaloStore &store() { return *store_; }

  protected:
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        (void)rt;
        // Claim every line inside the segment area. There is nothing
        // to repair — records are independent, so a lost line costs
        // exactly the records it held — but the loss is noted so
        // verifyRecovered() can excuse those records, and degraded
        // here with its record count.
        std::vector<LineAddr> claimed;
        auto inArea = [&](LineAddr line) {
            const Addr addr = static_cast<Addr>(line)
                              << kCacheLineBits;
            return store_->allocator().segmentOf(addr) !=
                   ~std::uint64_t(0);
        };
        for (const LineAddr line : lines) {
            if (inArea(line))
                claimed.push_back(line);
        }
        if (claimed.empty())
            return;
        const std::size_t records = store_->noteLostLines(claimed);
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
    HaloStore::Config
    storeConfig() const
    {
        HaloStore::Config cfg;
        cfg.base = 0;
        cfg.bytes = config_.poolBytes;
        cfg.threads = config_.threads;
        return cfg;
    }

    /** Every index entry names a valid record in a used segment. */
    void
    checkIndexBacking(Runtime &rt, VerifyReport &rep)
    {
        const pm::PmPool &pool = rt.pool();
        bool more = true;
        store_->forEachIndexed([&](std::uint64_t key, Addr addr) {
            if (!more)
                return;
            HaloRecord rec;
            if (!rep.check(store_->recordAt(pool, addr, rec) &&
                               rec.key == key,
                           "index-record-match",
                           "index entry names no valid record")) {
                more = false;
                return;
            }
            const std::uint64_t seg =
                store_->allocator().segmentOf(addr);
            more = rep.check(store_->allocator().segmentUsed(seg),
                             "index-addr-allocated",
                             "index entry in an unused segment");
        });
    }

    /** One committed key's post-recovery obligation. */
    bool
    checkCommitted(const pm::PmPool &pool, ThreadId tid,
                   std::uint64_t key, const HaloStore::CommitState &c,
                   VerifyReport &rep)
    {
        Addr addr = kNullAddr;
        const bool present = store_->indexLookup(key, addr);
        if (c.tombstone) {
            if (!present)
                return true;
            HaloRecord rec;
            if (!rep.check(store_->recordAt(pool, addr, rec),
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
            const auto &tombs = store_->recoveredTombstones(tid);
            const auto it = tombs.find(key);
            if (it != tombs.end() && it->second > c.seq)
                return true; // later tombstone survived: legitimate
            return rep.check(false, "committed-pair-missing",
                             "committed key " + std::to_string(key) +
                                 " unreachable after rebuild");
        }
        HaloRecord rec;
        if (!rep.check(store_->recordAt(pool, addr, rec),
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
    bool
    checkGenuine(const pm::PmPool &pool, std::uint64_t key, Addr addr,
                 VerifyReport &rep)
    {
        HaloRecord rec;
        if (!rep.check(store_->recordAt(pool, addr, rec),
                       "index-dangling",
                       "index entry unreadable after rebuild"))
            return false;
        const ThreadId tid = HaloRecord::ownerOfSeq(rec.seq);
        HaloStore::WrittenOp w;
        return rep.check(
            tid < store_->threads() && rec.key == key &&
                HaloStore::partitionOf(key) == tid &&
                store_->writtenOp(
                    tid, HaloRecord::counterOfSeq(rec.seq), w) &&
                w.key == key && !w.tombstone &&
                std::equal(w.vals, w.vals + halo::kValWords,
                           rec.vals),
            "phantom-record",
            "visible record was never genuinely written");
    }

    void
    pad(pm::PmContext &ctx, ThreadId tid)
    {
        ctx.vBurst(scratch_[tid].data(), 1 << 14, 560, 240);
        ctx.compute(6500);
    }

    void
    opDone(pm::PmContext &ctx, ThreadId tid)
    {
        if (++wlOps_[tid] % kDurabilityInterval == 0)
            store_->durabilityPoint(ctx, tid);
    }

    std::unique_ptr<HaloStore> store_;
    WorkloadKeymap wlMap_;
    std::vector<std::vector<std::uint64_t>> scratch_;
    std::vector<std::uint64_t> wlOps_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeHaloHashmapApp(const core::AppConfig &config)
{
    return std::make_unique<HaloHashmapApp>(config);
}

} // namespace whisper::apps
