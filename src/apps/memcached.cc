/**
 * @file
 * Memcached: the in-memory object cache, persisted with Mnemosyne
 * (paper §3.2.2).
 *
 * The hash table and the LRU replacement list live in PM segments;
 * all accesses that used to be guarded by memcached's locks execute
 * as Mnemosyne durable transactions instead (the paper's 17-LOC
 * modification). The driving workload is memslap-like: 5% SET / 95%
 * GET — but *every* GET is also a transaction, because a hit splices
 * the item to the LRU head, which mutates persistent state.
 */

#include <mutex>

#include "apps/apps.hh"
#include "apps/instance_app.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "txlib/mnemosyne.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

constexpr std::uint64_t kBuckets = 8192;
constexpr std::size_t kValueBytes = 48;
constexpr std::uint64_t kItemSalt = 0x3E3CAC4Eull;

/** Cache item: hash chain + LRU list node. */
struct CacheItem
{
    std::uint64_t key;
    std::uint8_t value[kValueBytes];
    std::uint64_t checksum;
    Addr hnext;   //!< hash chain
    Addr prev;    //!< LRU towards head
    Addr next;    //!< LRU towards tail
};

std::uint64_t
itemChecksum(const CacheItem &it)
{
    return it.key ^ mne::foldChecksum(it.value, sizeof(it.value)) ^
           kItemSalt;
}

struct CacheRoot
{
    std::uint64_t magic;
    std::uint64_t count;
    std::uint64_t capacity;
    Addr lruHead;
    Addr lruTail;
    Addr buckets[kBuckets];

    static constexpr std::uint64_t kMagic = 0x3E3CACEEull;
};

std::uint64_t
hashKey(std::uint64_t key)
{
    key ^= key >> 31;
    key *= 0x7fb5d329728ea185ull;
    key ^= key >> 27;
    return key;
}

/** One cache: the hash/LRU root in front of its own Mnemosyne heap. */
struct Instance
{
    Addr rootOff = 0;
    std::unique_ptr<mne::MnemosyneHeap> heap;
};

/**
 * Format an empty cache of @p capacity items over [@p base,
 * @p base + @p bytes).
 */
Instance
formatCache(pm::PmContext &ctx, Addr base, std::size_t bytes,
            unsigned lanes, std::uint64_t capacity)
{
    Instance c;
    c.rootOff = base;
    const Addr heap_base =
        lineBase(base + sizeof(CacheRoot) + kCacheLineSize);
    c.heap = std::make_unique<mne::MnemosyneHeap>(
        ctx, heap_base, base + bytes - heap_base, lanes);
    CacheRoot root{};
    root.magic = CacheRoot::kMagic;
    root.capacity = capacity;
    root.lruHead = root.lruTail = kNullAddr;
    for (auto &b : root.buckets)
        b = kNullAddr;
    ctx.store(base, &root, sizeof(root), DataClass::User);
    ctx.flush(base, sizeof(root));
    ctx.fence(FenceKind::Durability);
    return c;
}

/** Request parsing / response buffers: DRAM traffic per request. */
void
pad(pm::PmContext &ctx, std::uint64_t key)
{
    char reqbuf[64];
    std::snprintf(reqbuf, sizeof(reqbuf), "get k%llu",
                  static_cast<unsigned long long>(key));
    ctx.vStore(reqbuf, sizeof(reqbuf));
    ctx.vLoad(reqbuf, 16);
    ctx.vBurst(reqbuf, 1 << 13, 160, 70);
    ctx.compute(5500);
}

Addr
find(pm::PmContext &ctx, const Instance &c, std::uint64_t key)
{
    Addr cur = ctx.pool().at<CacheRoot>(c.rootOff)
                   ->buckets[hashKey(key) % kBuckets];
    while (cur != kNullAddr) {
        std::uint64_t probe = 0;
        ctx.load(cur + offsetof(CacheItem, key), &probe, 8);
        if (probe == key)
            return cur;
        cur = ctx.pool().at<CacheItem>(cur)->hnext;
    }
    return kNullAddr;
}

/** Unlink @p off from the LRU list inside @p tx. */
void
lruUnlink(pm::PmContext &ctx, mne::Transaction &tx, const Instance &c,
          Addr off)
{
    CacheRoot *r = ctx.pool().at<CacheRoot>(c.rootOff);
    const CacheItem *it = ctx.pool().at<CacheItem>(off);
    const Addr prev = tx.get(it->prev);
    const Addr next = tx.get(it->next);
    if (prev != kNullAddr)
        tx.set(ctx.pool().at<CacheItem>(prev)->next, next,
               DataClass::User);
    else
        tx.set(r->lruHead, next, DataClass::User);
    if (next != kNullAddr)
        tx.set(ctx.pool().at<CacheItem>(next)->prev, prev,
               DataClass::User);
    else
        tx.set(r->lruTail, prev, DataClass::User);
}

/** Push @p off onto the LRU head inside @p tx. */
void
lruPushFront(pm::PmContext &ctx, mne::Transaction &tx,
             const Instance &c, Addr off)
{
    CacheRoot *r = ctx.pool().at<CacheRoot>(c.rootOff);
    const Addr old_head = tx.get(r->lruHead);
    const Addr links[2] = {kNullAddr, old_head}; // prev, next
    tx.update(off + offsetof(CacheItem, prev), links, sizeof(links),
              DataClass::User);
    if (old_head != kNullAddr)
        tx.set(ctx.pool().at<CacheItem>(old_head)->prev, off,
               DataClass::User);
    else
        tx.set(r->lruTail, off, DataClass::User);
    tx.set(r->lruHead, off, DataClass::User);
}

/** GET: a hit reads the item and bumps it to the LRU head. */
bool
getOp(pm::PmContext &ctx, Instance &c, std::uint64_t key)
{
    const Addr off = find(ctx, c, key);
    if (off == kNullAddr) {
        ctx.compute(60); // miss path: reply formatting only
        return false;
    }
    CacheItem copy{};
    ctx.load(off, &copy, sizeof(copy));
    // LRU bump: a persistent mutation, hence a transaction.
    mne::Transaction tx(*c.heap, ctx);
    lruUnlink(ctx, tx, c, off);
    lruPushFront(ctx, tx, c, off);
    tx.commit();
    return true;
}

/** SET: overwrite + bump, or evict the LRU tail when full and insert. */
void
setOp(pm::PmContext &ctx, Instance &c, std::uint64_t key,
      const std::uint8_t value[kValueBytes])
{
    CacheRoot *r = ctx.pool().at<CacheRoot>(c.rootOff);
    const Addr existing = find(ctx, c, key);

    if (existing != kNullAddr) {
        mne::Transaction tx(*c.heap, ctx);
        CacheItem *it = ctx.pool().at<CacheItem>(existing);
        tx.update(existing + offsetof(CacheItem, value), value,
                  kValueBytes, DataClass::User);
        CacheItem staged{};
        tx.read(existing, &staged, sizeof(staged));
        const std::uint64_t sum = itemChecksum(staged);
        tx.set(it->checksum, sum, DataClass::User);
        lruUnlink(ctx, tx, c, existing);
        lruPushFront(ctx, tx, c, existing);
        tx.commit();
        return;
    }

    mne::Transaction tx(*c.heap, ctx);
    // Evict from the tail when full.
    if (tx.get(r->count) >= tx.get(r->capacity)) {
        const Addr victim = tx.get(r->lruTail);
        if (victim != kNullAddr) {
            lruUnlink(ctx, tx, c, victim);
            // Remove from its hash chain.
            const CacheItem *v = ctx.pool().at<CacheItem>(victim);
            const std::uint64_t vkey = v->key;
            Addr holder = c.rootOff + offsetof(CacheRoot, buckets) +
                          (hashKey(vkey) % kBuckets) * sizeof(Addr);
            Addr cur = tx.get(*ctx.pool().at<Addr>(holder));
            while (cur != kNullAddr && cur != victim) {
                holder = cur + offsetof(CacheItem, hnext);
                cur = tx.get(*ctx.pool().at<Addr>(holder));
            }
            if (cur == victim) {
                const Addr vnext =
                    tx.get(ctx.pool().at<CacheItem>(victim)->hnext);
                tx.update(holder, &vnext, 8, DataClass::User);
            }
            tx.pfree(victim);
            const std::uint64_t n = tx.get(r->count) - 1;
            tx.set(r->count, n, DataClass::User);
        }
    }

    const Addr off = tx.pmalloc(sizeof(CacheItem));
    if (off == kNullAddr) {
        tx.abort();
        return;
    }
    Addr &bucket = r->buckets[hashKey(key) % kBuckets];
    CacheItem it{};
    it.key = key;
    std::memcpy(it.value, value, kValueBytes);
    it.checksum = itemChecksum(it);
    it.hnext = tx.get(bucket);
    it.prev = it.next = kNullAddr;
    tx.update(off, &it, sizeof(it), DataClass::User);
    tx.set(bucket, off, DataClass::User);
    lruPushFront(ctx, tx, c, off);
    const std::uint64_t n = tx.get(r->count) + 1;
    tx.set(r->count, n, DataClass::User);
    tx.commit();
}

/** Hash side, LRU side and the count must agree. */
bool
checkCache(pm::PmContext &ctx, const Instance &c, std::string *why)
{
    const CacheRoot *r = ctx.pool().at<CacheRoot>(c.rootOff);
    if (r->magic != CacheRoot::kMagic) {
        if (why)
            *why = "bad root magic";
        return false;
    }

    // Hash side: collect all items, validate checksums.
    std::uint64_t hash_items = 0;
    for (std::uint64_t b = 0; b < kBuckets; b++) {
        Addr cur = r->buckets[b];
        std::uint64_t guard = 0;
        while (cur != kNullAddr) {
            if (++guard > 10'000'000) {
                if (why)
                    *why = "hash chain cycle";
                return false;
            }
            const CacheItem *it = ctx.pool().at<CacheItem>(cur);
            if (it->checksum != itemChecksum(*it)) {
                if (why)
                    *why = "item checksum mismatch";
                return false;
            }
            if (hashKey(it->key) % kBuckets != b) {
                if (why)
                    *why = "item in wrong bucket";
                return false;
            }
            hash_items++;
            cur = it->hnext;
        }
    }

    // LRU side: forward walk must match count and back-links.
    std::uint64_t lru_items = 0;
    Addr prev = kNullAddr;
    Addr cur = r->lruHead;
    std::uint64_t guard = 0;
    while (cur != kNullAddr) {
        if (++guard > 10'000'000) {
            if (why)
                *why = "LRU cycle";
            return false;
        }
        const CacheItem *it = ctx.pool().at<CacheItem>(cur);
        if (it->prev != prev) {
            if (why)
                *why = "LRU back-link broken";
            return false;
        }
        lru_items++;
        prev = cur;
        cur = it->next;
    }
    if (r->lruTail != prev) {
        if (why)
            *why = "LRU tail mismatch";
        return false;
    }
    if (hash_items != lru_items || hash_items != r->count) {
        if (why)
            *why = "hash/LRU/count disagree";
        return false;
    }
    return true;
}

class MemcachedApp : public MneApp<Instance>
{
  public:
    explicit MemcachedApp(const AppConfig &config)
        : MneApp<Instance>(config, sizeof(CacheRoot) + (2u << 20))
    {
    }

    std::string name() const override { return "memcached"; }

    void
    setup(Runtime &rt) override
    {
        MneApp<Instance>::setup(rt);
        // Warm the cache to ~half capacity.
        Rng rng(config_.seed);
        for (std::uint64_t i = 0; i < capacity() / 2; i++)
            randomSet(rt.ctx(0), rng.next(keySpace()), rng);
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 89 + tid);
        ZipfianGenerator zipf(keySpace());
        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const std::uint64_t key = zipf.next(rng);
            pad(ctx, key);
            if (rng.chance(0.05)) {
                randomSet(ctx, key, rng);
            } else {
                std::lock_guard<std::mutex> guard(cacheLock_);
                getOp(ctx, inst_[0], key);
            }
        }
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // Each workload thread gets its own cache (root + Mnemosyne heap
    // over a disjoint pool slice), mirroring memcached deployments
    // that run one worker per core with partitioned key ownership.

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, key);
        return getOp(ctx, inst_[tid], key);
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, key);
        std::uint8_t bytes[kValueBytes];
        expandValue(value, bytes);
        setOp(ctx, inst_[tid], key, bytes);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, key);
        const Addr off = find(ctx, inst_[tid], key);
        std::uint64_t seed = delta;
        if (off != kNullAddr) {
            std::uint8_t old[kValueBytes];
            ctx.load(off + offsetof(CacheItem, value), old, kValueBytes);
            seed += mne::foldChecksum(old, kValueBytes);
        }
        std::uint8_t bytes[kValueBytes];
        expandValue(seed, bytes);
        setOp(ctx, inst_[tid], key, bytes);
        return off != kNullAddr;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        // Multi-get: point lookups without LRU bumps, like a batched
        // read-only pipeline.
        pad(ctx, key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const Addr off =
                find(ctx, inst_[tid], wlMap_.scanKey(tid, key, j));
            if (off == kNullAddr)
                continue;
            CacheItem copy{};
            ctx.load(off, &copy, sizeof(copy));
            found++;
        }
        return found;
    }

  protected:
    /**
     * A workload shard's capacity exceeds the keymap's slot count, so
     * workload-owned keys are never evicted: a GET on a loaded or
     * inserted key must always hit.
     */
    Instance
    format(pm::PmContext &ctx, Addr base, std::size_t bytes,
           bool workload) override
    {
        return formatCache(ctx, base, bytes, lanes(workload),
                           workload ? wlMap_.slotsPerThread() + 64
                                    : capacity());
    }

    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        for (std::uint64_t i = 0; i < wlMap_.perThread(); i++) {
            const std::uint64_t key = wlMap_.lo(tid) + i;
            std::uint8_t value[kValueBytes];
            expandValue(key * 0x9e3779b97f4a7c15ull, value);
            setOp(ctx, inst_[tid], key, value);
        }
    }

    void
    checkStructure(pm::PmContext &ctx, Instance &c, bool clean,
                   VerifyReport &rep) override
    {
        (void)clean;
        std::string why;
        rep.check(checkCache(ctx, c, &why), "cache-intact", why);
    }

  private:
    /** The paper run's cache capacity. */
    std::uint64_t
    capacity() const
    {
        return std::max<std::uint64_t>(1024, config_.opsPerThread / 2);
    }

    std::uint64_t
    keySpace() const
    {
        return std::max<std::uint64_t>(2048, config_.opsPerThread * 2);
    }

    /** run()'s SET: @p key := rng-filled bytes on the shared cache. */
    void
    randomSet(pm::PmContext &ctx, std::uint64_t key, Rng &rng)
    {
        std::lock_guard<std::mutex> guard(cacheLock_);
        std::uint8_t value[kValueBytes];
        for (auto &b : value)
            b = static_cast<std::uint8_t>(rng());
        setOp(ctx, inst_[0], key, value);
    }

    /** Deterministic 48-byte value from a 64-bit seed (splitmix64). */
    static void
    expandValue(std::uint64_t seed, std::uint8_t out[kValueBytes])
    {
        for (std::size_t i = 0; i < kValueBytes; i += 8) {
            const std::uint64_t z = splitmix64(seed);
            std::memcpy(out + i, &z, 8);
        }
    }

    /** Serializes run()'s threads on the shared cache. */
    std::mutex cacheLock_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeMemcachedApp(const core::AppConfig &config)
{
    return std::make_unique<MemcachedApp>(config);
}

} // namespace whisper::apps
