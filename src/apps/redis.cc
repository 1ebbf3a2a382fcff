/**
 * @file
 * Redis: an in-memory dictionary server persisted through NVML.
 *
 * Mirrors the third-party NVML-enhanced Redis the paper used: string
 * keys and values live in a chained hash table allocated from an NVML
 * pool, and every mutation runs in a pmemobj-style undo-logged
 * transaction. Redis is single-threaded: only client 0 executes
 * server commands; the other configured clients generate requests and
 * parse replies, which is volatile (DRAM) work — exactly why redis
 * shows one of the lowest PM fractions in the paper's Figure 6
 * (0.74%).
 *
 * The driving workload is an lru-test-like mix over a large key space
 * (SET-heavy so the LRU cycles), as in Table 1.
 */


#include "apps/apps.hh"
#include "apps/instance_app.hh"
#include "common/logging.hh"
#include "txlib/mnemosyne.hh" // foldChecksum
#include "txlib/nvml.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

constexpr std::uint64_t kBuckets = 16384;
constexpr std::size_t kKeyBytes = 32;
constexpr std::size_t kValBytes = 64;

/** One dictionary entry (chained). */
struct DictEntry
{
    char key[kKeyBytes];
    char val[kValBytes];
    std::uint32_t keyLen;
    std::uint32_t valLen;
    std::uint32_t checksum;
    std::uint32_t pad;
    Addr next;
};

/** Persistent dictionary root. */
struct DictRoot
{
    std::uint64_t magic;
    Addr buckets[kBuckets];

    static constexpr std::uint64_t kMagic = 0x4245441500000000ull;
};

std::uint64_t
hashBytes(const char *s, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; i++) {
        h ^= static_cast<std::uint8_t>(s[i]);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint32_t
entryChecksum(const DictEntry &e)
{
    return mne::foldChecksum(e.key, e.keyLen) ^
           mne::foldChecksum(e.val, e.valLen) ^ e.keyLen ^ e.valLen;
}

/**
 * One server's dictionary: the header (bucket array, too large for a
 * slab object) in front of its own NVML pool, the way the NVML Redis
 * port lays out its dict region.
 */
struct Instance
{
    Addr dictOff = 0;
    std::unique_ptr<nvml::NvmlPool> pool;
};

/** Format an empty dictionary over [@p base, @p base + @p bytes). */
Instance
formatDict(pm::PmContext &ctx, Addr base, std::size_t bytes)
{
    Instance d;
    d.dictOff = base;
    const Addr pool_base =
        lineBase(base + sizeof(DictRoot) + kCacheLineSize);
    d.pool = std::make_unique<nvml::NvmlPool>(
        ctx, pool_base, base + bytes - pool_base, 1);
    DictRoot root{};
    root.magic = DictRoot::kMagic;
    for (auto &b : root.buckets)
        b = kNullAddr;
    ctx.store(base, &root, sizeof(root), DataClass::User);
    ctx.flush(base, sizeof(root));
    ctx.fence(FenceKind::Durability);
    return d;
}

/** Event loop, protocol parsing, reply buffers per command: redis is
 *  ~0.7% PM accesses in the paper's Figure 6. */
void
pad(pm::PmContext &ctx, const void *base)
{
    ctx.vBurst(base, 1 << 14, 500, 250);
    ctx.compute(3500);
}

Addr
find(pm::PmContext &ctx, const Instance &d, const char *key,
     std::size_t klen)
{
    const DictRoot *root = ctx.pool().at<DictRoot>(d.dictOff);
    Addr cur = root->buckets[hashBytes(key, klen) % kBuckets];
    while (cur != kNullAddr) {
        DictEntry probe{};
        ctx.load(cur, &probe, 48); // key prefix + lens
        const DictEntry *e = ctx.pool().at<DictEntry>(cur);
        if (e->keyLen == klen && std::memcmp(e->key, key, klen) == 0)
            return cur;
        cur = e->next;
    }
    return kNullAddr;
}

/** SET: overwrite in place or chain a fresh entry, one transaction. */
void
setCmd(pm::PmContext &ctx, Instance &d, const char *key,
       std::size_t klen, const char *val, std::size_t vlen)
{
    const Addr existing = find(ctx, d, key, klen);
    nvml::TxContext tx(*d.pool, ctx);
    if (existing != kNullAddr) {
        // Overwrite in place: snapshot the value region, store.
        DictEntry *e = ctx.pool().at<DictEntry>(existing);
        tx.addRange(existing + offsetof(DictEntry, val),
                    kValBytes + 16);
        ctx.store(existing + offsetof(DictEntry, val), val, vlen,
                  DataClass::User);
        const auto vlen32 = static_cast<std::uint32_t>(vlen);
        ctx.store(existing + offsetof(DictEntry, valLen), &vlen32, 4,
                  DataClass::User);
        const std::uint32_t sum = entryChecksum(*e);
        ctx.store(existing + offsetof(DictEntry, checksum), &sum, 4,
                  DataClass::User);
        tx.commit();
        return;
    }
    const Addr off = tx.txAlloc(sizeof(DictEntry));
    if (off == kNullAddr) {
        tx.abort();
        return;
    }
    // Fresh object: direct stores, no snapshots needed.
    DictEntry e{};
    std::memcpy(e.key, key, klen);
    std::memcpy(e.val, val, vlen);
    e.keyLen = static_cast<std::uint32_t>(klen);
    e.valLen = static_cast<std::uint32_t>(vlen);
    e.checksum = entryChecksum(e);
    DictRoot *root = ctx.pool().at<DictRoot>(d.dictOff);
    Addr &bucket = root->buckets[hashBytes(key, klen) % kBuckets];
    e.next = bucket;
    tx.directStore(off, &e, sizeof(e), DataClass::User);
    // Linking mutates reachable state: snapshot the bucket head.
    tx.set(bucket, off, DataClass::User);
    tx.commit();
}

/** GET: lookup, read the entry, format the reply. */
bool
getCmd(pm::PmContext &ctx, const Instance &d, const char *key,
       std::size_t klen)
{
    const Addr off = find(ctx, d, key, klen);
    if (off != kNullAddr) {
        DictEntry e{};
        ctx.load(off, &e, sizeof(e));
    }
    ctx.compute(80); // reply formatting
    return off != kNullAddr;
}

/** Dict magic, entry lengths, checksums and bucket placement. */
bool
checkDict(pm::PmContext &ctx, const Instance &d, std::string *why)
{
    const DictRoot *root = ctx.pool().at<DictRoot>(d.dictOff);
    if (root->magic != DictRoot::kMagic) {
        if (why)
            *why = "bad dict magic";
        return false;
    }
    for (std::uint64_t b = 0; b < kBuckets; b++) {
        Addr cur = root->buckets[b];
        std::uint64_t guard = 0;
        while (cur != kNullAddr) {
            if (++guard > 10'000'000) {
                if (why)
                    *why = "bucket cycle";
                return false;
            }
            const DictEntry *e = ctx.pool().at<DictEntry>(cur);
            if (e->keyLen == 0 || e->keyLen > kKeyBytes ||
                e->valLen > kValBytes) {
                if (why)
                    *why = "entry with invalid lengths";
                return false;
            }
            if (e->checksum != entryChecksum(*e)) {
                if (why)
                    *why = "entry checksum mismatch";
                return false;
            }
            if (hashBytes(e->key, e->keyLen) % kBuckets != b) {
                if (why)
                    *why = "entry in wrong bucket";
                return false;
            }
            cur = e->next;
        }
    }
    return true;
}

class RedisApp : public NvmlApp<Instance>
{
  public:
    explicit RedisApp(const AppConfig &config)
        : NvmlApp<Instance>(config, sizeof(DictRoot) + (2u << 20))
    {
    }

    std::string name() const override { return "redis"; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 131 + tid);
        const std::uint64_t keyspace =
            std::max<std::uint64_t>(4096, config_.opsPerThread * 2);

        if (tid != 0) {
            // Client threads: format requests, parse replies — pure
            // DRAM traffic plus think time.
            std::vector<char> reqbuf(128);
            for (std::uint64_t op = 0; op < config_.opsPerThread;
                 op++) {
                const std::string key =
                    "key:" + std::to_string(rng.next(keyspace));
                std::snprintf(reqbuf.data(), reqbuf.size(),
                              "SET %s v", key.c_str());
                ctx.vStore(reqbuf.data(), key.size() + 6);
                for (int i = 0; i < 8; i++)
                    ctx.vLoad(reqbuf.data() + i * 8, 8);
                ctx.compute(150);
            }
            return;
        }

        // Server thread: the whole command stream of all clients is
        // serviced here (Redis's single event loop), so the dict
        // needs no lock.
        Instance &d = inst_[0];
        const std::uint64_t total =
            config_.opsPerThread * config_.threads;
        for (std::uint64_t op = 0; op < total; op++) {
            const std::uint64_t knum = rng.next(keyspace);
            char key[kKeyBytes];
            const int klen = std::snprintf(key, sizeof(key), "key:%llu",
                static_cast<unsigned long long>(knum));
            pad(ctx, key);
            if (rng.chance(0.5)) {
                char val[kValBytes];
                const int vlen = std::snprintf(val, sizeof(val),
                    "value-%llu-%016llx",
                    static_cast<unsigned long long>(knum),
                    static_cast<unsigned long long>(rng()));
                setCmd(ctx, d, key, klen, val, vlen);
            } else {
                getCmd(ctx, d, key, klen);
            }
        }
    }

    /** @{ \name Generated-workload surface
     *
     * Real deployments scale single-threaded Redis by running one
     * server instance per core (redis-cluster); the generated
     * workload models exactly that: every worker thread is its own
     * server shard — private dict + private NvmlPool over a disjoint
     * device slice — executing its clients' commands inline with the
     * run() event-loop padding per command.
     */

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        char kbuf[kKeyBytes];
        const int klen = formatKey(kbuf, key);
        pad(ctx, kbuf);
        return getCmd(ctx, inst_[tid], kbuf, klen);
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        char kbuf[kKeyBytes], vbuf[kValBytes];
        const int klen = formatKey(kbuf, key);
        const int vlen = formatVal(vbuf, value);
        pad(ctx, kbuf);
        setCmd(ctx, inst_[tid], kbuf, klen, vbuf, vlen);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        char kbuf[kKeyBytes], vbuf[kValBytes];
        const int klen = formatKey(kbuf, key);
        pad(ctx, kbuf);
        const Addr off = find(ctx, inst_[tid], kbuf, klen);
        std::uint64_t fold = delta;
        if (off != kNullAddr) {
            DictEntry e{};
            ctx.load(off, &e, sizeof(e));
            fold += mne::foldChecksum(e.val, e.valLen);
        }
        const int vlen = formatVal(vbuf, fold);
        setCmd(ctx, inst_[tid], kbuf, klen, vbuf, vlen);
        return off != kNullAddr;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        char kbuf[kKeyBytes] = {};
        pad(ctx, kbuf);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const int klen =
                formatKey(kbuf, wlMap_.scanKey(tid, key, j));
            const Addr off = find(ctx, inst_[tid], kbuf, klen);
            if (off != kNullAddr) {
                DictEntry e{};
                ctx.load(off, &e, sizeof(e));
                found++;
            }
        }
        ctx.compute(80);
        return found;
    }

    /** @} */

  protected:
    /** One lane either way: a server's one event loop writes it. */
    Instance
    format(pm::PmContext &ctx, Addr base, std::size_t bytes,
           bool workload) override
    {
        (void)workload;
        return formatDict(ctx, base, bytes);
    }

    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        for (std::uint64_t i = 0; i < wlMap_.perThread(); i++) {
            const std::uint64_t k = wlMap_.lo(tid) + i;
            char key[kKeyBytes], val[kValBytes];
            const int klen = formatKey(key, k);
            const int vlen = formatVal(val, WorkloadKeymap::loadedValue(k));
            setCmd(ctx, inst_[tid], key, klen, val, vlen);
        }
    }

    void
    checkStructure(pm::PmContext &ctx, Instance &d, bool clean,
                   VerifyReport &rep) override
    {
        (void)clean;
        std::string why;
        rep.check(checkDict(ctx, d, &why), "dict-intact", why);
    }

  private:
    static int
    formatKey(char *buf, std::uint64_t key)
    {
        return std::snprintf(buf, kKeyBytes, "key:%llu",
                             static_cast<unsigned long long>(key));
    }

    static int
    formatVal(char *buf, std::uint64_t v)
    {
        return std::snprintf(buf, kValBytes, "value-%016llx",
                             static_cast<unsigned long long>(v));
    }
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeRedisApp(const core::AppConfig &config)
{
    return std::make_unique<RedisApp>(config);
}

} // namespace whisper::apps
