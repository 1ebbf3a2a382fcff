/**
 * @file
 * Hashmap: the NVML persistent-hashmap micro-benchmark.
 *
 * Open-chained hashmap over 64-bit keys as in NVML's hashmap_tx
 * example: a persistent bucket array object plus chained entries,
 * every INSERT running in an undo-logged transaction. Four client
 * threads perform INSERT (and some REMOVE) transactions (Table 1).
 */

#include <mutex>

#include "apps/apps.hh"
#include "apps/instance_app.hh"
#include "common/logging.hh"
#include "txlib/nvml.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

constexpr std::uint64_t kBuckets = 16384;

struct MapEntry
{
    std::uint64_t key;
    std::uint64_t value;
    std::uint64_t checksum; //!< key ^ value ^ kSalt
    Addr next;
    static constexpr std::uint64_t kSalt = 0x4A5471ull;
};

struct MapRoot
{
    std::uint64_t magic;
    std::uint64_t count;
    Addr buckets[kBuckets];

    static constexpr std::uint64_t kMagic = 0x4A5244AAull;
};

std::uint64_t
hashKey(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ull;
    key ^= key >> 33;
    return key;
}

/** One map: the bucket-array root in front of its own NvmlPool. */
struct Instance
{
    Addr rootOff = 0;
    std::unique_ptr<nvml::NvmlPool> pool;
};

/** Format an empty map over [@p base, @p base + @p bytes). */
Instance
formatMap(pm::PmContext &ctx, Addr base, std::size_t bytes,
          unsigned lanes)
{
    Instance m;
    m.rootOff = base;
    const Addr pool_base =
        lineBase(base + sizeof(MapRoot) + kCacheLineSize);
    m.pool = std::make_unique<nvml::NvmlPool>(
        ctx, pool_base, base + bytes - pool_base, lanes);
    MapRoot root{};
    root.magic = MapRoot::kMagic;
    for (auto &b : root.buckets)
        b = kNullAddr;
    ctx.store(base, &root, sizeof(root), DataClass::User);
    ctx.flush(base, sizeof(root));
    ctx.fence(FenceKind::Durability);
    return m;
}

/** Client-side DRAM work per op (paper Fig. 6: ~2.6% PM accesses). */
void
pad(pm::PmContext &ctx, const void *base)
{
    ctx.vBurst(base, 1 << 14, 560, 240);
    ctx.compute(6500);
}

/** Chain walk; entry offset (value out) or kNullAddr. */
Addr
find(pm::PmContext &ctx, const Instance &m, std::uint64_t key,
     std::uint64_t &value)
{
    const MapRoot *r = ctx.pool().at<MapRoot>(m.rootOff);
    Addr cur = r->buckets[hashKey(key) % kBuckets];
    while (cur != kNullAddr) {
        MapEntry probe{};
        ctx.load(cur, &probe, sizeof(probe));
        if (probe.key == key) {
            value = probe.value;
            return cur;
        }
        cur = probe.next;
    }
    return kNullAddr;
}

enum class PutResult { Updated, Inserted, Full };

/**
 * Insert-or-update @p key := @p value in one undo-logged transaction:
 * an existing key's value is overwritten in place; a new entry is
 * chained at its bucket head. A full pool aborts the transaction.
 */
PutResult
put(pm::PmContext &ctx, Instance &m, std::uint64_t key,
    std::uint64_t value)
{
    MapRoot *r = ctx.pool().at<MapRoot>(m.rootOff);
    Addr &bucket = r->buckets[hashKey(key) % kBuckets];
    std::uint64_t old = 0;
    const Addr existing = find(ctx, m, key, old);
    nvml::TxContext tx(*m.pool, ctx);
    if (existing != kNullAddr) {
        MapEntry *e = ctx.pool().at<MapEntry>(existing);
        tx.set(e->value, value, DataClass::User);
        const std::uint64_t sum = key ^ value ^ MapEntry::kSalt;
        tx.set(e->checksum, sum, DataClass::User);
        tx.commit();
        return PutResult::Updated;
    }
    const Addr off = tx.txAlloc(sizeof(MapEntry));
    if (off == kNullAddr) {
        tx.abort();
        return PutResult::Full;
    }
    MapEntry e{key, value, key ^ value ^ MapEntry::kSalt, bucket};
    tx.directStore(off, &e, sizeof(e), DataClass::User);
    tx.set(bucket, off, DataClass::User);
    const std::uint64_t n = r->count + 1;
    tx.set(r->count, n, DataClass::User);
    tx.commit();
    return PutResult::Inserted;
}

/** put() into a workload shard, which is sized never to run full. */
void
putOrPanic(pm::PmContext &ctx, Instance &m, std::uint64_t key,
           std::uint64_t value)
{
    panic_if(put(ctx, m, key, value) == PutResult::Full,
             "hashmap: workload shard full");
}

/** Transactional unlink + free of @p key's entry, if present. */
void
remove(pm::PmContext &ctx, Instance &m, std::uint64_t key)
{
    MapRoot *r = ctx.pool().at<MapRoot>(m.rootOff);
    Addr holder = m.rootOff + offsetof(MapRoot, buckets) +
                  (hashKey(key) % kBuckets) * sizeof(Addr);
    Addr cur = *ctx.pool().at<Addr>(holder);
    while (cur != kNullAddr) {
        MapEntry probe{};
        ctx.load(cur, &probe, sizeof(probe));
        if (probe.key == key) {
            nvml::TxContext tx(*m.pool, ctx);
            tx.addRange(holder, 8);
            ctx.store(holder, &probe.next, 8, DataClass::User);
            tx.txFree(cur);
            const std::uint64_t n = r->count - 1;
            tx.set(r->count, n, DataClass::User);
            tx.commit();
            return;
        }
        holder = cur + offsetof(MapEntry, next);
        cur = probe.next;
    }
}

/** Root magic, entry checksums, bucket placement and the count. */
bool
checkMap(pm::PmContext &ctx, const Instance &m, std::string *why)
{
    const MapRoot *r = ctx.pool().at<MapRoot>(m.rootOff);
    if (r->magic != MapRoot::kMagic) {
        if (why)
            *why = "bad root magic";
        return false;
    }
    std::uint64_t seen = 0;
    for (std::uint64_t b = 0; b < kBuckets; b++) {
        Addr cur = r->buckets[b];
        std::uint64_t guard = 0;
        while (cur != kNullAddr) {
            if (++guard > 10'000'000) {
                if (why)
                    *why = "bucket cycle";
                return false;
            }
            const MapEntry *e = ctx.pool().at<MapEntry>(cur);
            if (e->checksum != (e->key ^ e->value ^ MapEntry::kSalt)) {
                if (why)
                    *why = "entry checksum mismatch";
                return false;
            }
            if (hashKey(e->key) % kBuckets != b) {
                if (why)
                    *why = "entry in wrong bucket";
                return false;
            }
            seen++;
            cur = e->next;
        }
    }
    if (seen != r->count) {
        if (why)
            *why = "count does not match reachable entries";
        return false;
    }
    return true;
}

class HashmapApp : public NvmlApp<Instance>
{
  public:
    explicit HashmapApp(const AppConfig &config)
        : NvmlApp<Instance>(config, sizeof(MapRoot) + (2u << 20))
    {
    }

    std::string name() const override { return "hashmap"; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Instance &m = inst_[0];
        Rng rng(config_.seed * 271 + tid);
        const std::uint64_t keyspace = config_.opsPerThread * 4 + 64;
        std::vector<std::uint64_t> inserted;
        inserted.reserve(config_.opsPerThread);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            pad(ctx, inserted.data());
            if (!inserted.empty() && rng.chance(0.1)) {
                // REMOVE a previously inserted key.
                const std::size_t idx = rng.next(inserted.size());
                {
                    std::lock_guard<std::mutex> guard(mapLock_);
                    remove(ctx, m, inserted[idx]);
                }
                inserted[idx] = inserted.back();
                inserted.pop_back();
                ctx.vStore(inserted.data() + idx, 8);
            } else {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(tid) << 48) |
                    rng.next(keyspace);
                const std::uint64_t value = rng();
                std::unique_lock<std::mutex> guard(mapLock_);
                const PutResult res = put(ctx, m, key, value);
                guard.unlock();
                if (res == PutResult::Inserted) {
                    inserted.push_back(key);
                    ctx.vStore(&inserted.back(), 8);
                }
            }
        }
    }

    /** @{ \name Generated-workload surface
     *
     * One private map (root + NvmlPool) per worker thread over a
     * disjoint slice of the device — the YCSB one-client-per-thread
     * model. Partitioning keeps chain walks (and thus latencies)
     * independent of scheduling and needs no lock; the undo-log
     * discipline per op is run()'s.
     */

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, this);
        std::uint64_t value = 0;
        return find(ctx, inst_[tid], key, value) != kNullAddr;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, this);
        putOrPanic(ctx, inst_[tid], key, value);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, this);
        Instance &m = inst_[tid];
        std::uint64_t value = 0;
        const Addr off = find(ctx, m, key, value);
        if (off == kNullAddr) {
            putOrPanic(ctx, m, key, delta);
            return false;
        }
        nvml::TxContext tx(*m.pool, ctx);
        MapEntry *e = ctx.pool().at<MapEntry>(off);
        const std::uint64_t nv = value + delta;
        tx.set(e->value, nv, DataClass::User);
        const std::uint64_t sum = key ^ nv ^ MapEntry::kSalt;
        tx.set(e->checksum, sum, DataClass::User);
        tx.commit();
        return true;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, this);
        std::uint64_t found = 0;
        std::uint64_t value = 0;
        for (std::uint64_t j = 0; j < len; j++)
            if (find(ctx, inst_[tid], wlMap_.scanKey(tid, key, j),
                     value) != kNullAddr)
                found++;
        return found;
    }

    /** @} */

  protected:
    Instance
    format(pm::PmContext &ctx, Addr base, std::size_t bytes,
           bool workload) override
    {
        return formatMap(ctx, base, bytes, lanes(workload));
    }

    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        for (std::uint64_t i = 0; i < wlMap_.perThread(); i++) {
            const std::uint64_t key = wlMap_.lo(tid) + i;
            putOrPanic(ctx, inst_[tid], key, key * 0x9e3779b97f4a7c15ull);
        }
    }

    void
    checkStructure(pm::PmContext &ctx, Instance &m, bool clean,
                   VerifyReport &rep) override
    {
        (void)clean;
        std::string why;
        rep.check(checkMap(ctx, m, &why), "map-intact", why);
    }

  private:
    /** Serializes run()'s threads on the shared map. */
    std::mutex mapLock_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeHashmapApp(const core::AppConfig &config)
{
    return std::make_unique<HashmapApp>(config);
}

} // namespace whisper::apps
