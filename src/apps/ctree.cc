/**
 * @file
 * C-tree: the NVML crit-bit tree micro-benchmark.
 *
 * A crit-bit (PATRICIA) tree over 64-bit keys, as shipped in NVML's
 * examples: internal nodes hold the critical bit position and two
 * children; leaves hold key and value. Inserts allocate one leaf and
 * (except for the first insert) one internal node per operation and
 * splice the internal node into the path — a pointer update inside an
 * undo-logged transaction. Four client threads perform INSERT
 * transactions (paper Table 1).
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

/** Tagged pointer: low bit set == internal node. */
constexpr Addr kInternalTag = 1;

struct CtLeaf
{
    std::uint64_t key;
    std::uint64_t value;
    std::uint64_t checksum; //!< key ^ value ^ kSalt
    static constexpr std::uint64_t kSalt = 0xC17B17ull;
};

struct CtInternal
{
    std::uint32_t bit;      //!< critical bit index (63..0)
    std::uint32_t pad;
    Addr child[2];
};

struct CtRoot
{
    std::uint64_t magic;
    Addr top;               //!< tagged pointer or kNullAddr
    std::uint64_t count;    //!< committed inserts

    static constexpr std::uint64_t kMagic = 0xC7EEC7EEull;
};

bool
isInternal(Addr tagged)
{
    return tagged != kNullAddr && (tagged & kInternalTag);
}

Addr
untag(Addr tagged)
{
    return tagged & ~kInternalTag;
}

/** One tree: the root in front of its own NvmlPool. */
struct Instance
{
    Addr rootOff = 0;
    std::unique_ptr<nvml::NvmlPool> pool;
};

/** Format an empty tree over [@p base, @p base + @p bytes). */
Instance
formatTree(pm::PmContext &ctx, Addr base, std::size_t bytes,
           unsigned lanes)
{
    Instance t;
    t.rootOff = base;
    const Addr pool_base =
        lineBase(base + sizeof(CtRoot) + kCacheLineSize);
    t.pool = std::make_unique<nvml::NvmlPool>(
        ctx, pool_base, base + bytes - pool_base, lanes);
    CtRoot root{CtRoot::kMagic, kNullAddr, 0};
    ctx.store(base, &root, sizeof(root), DataClass::User);
    ctx.flush(base, sizeof(root));
    ctx.fence(FenceKind::Durability);
    return t;
}

/** Client-side key generation and buffers (paper Fig. 6: ctree is
 *  ~3.3% PM accesses). */
void
pad(pm::PmContext &ctx, const void *base)
{
    ctx.vBurst(base, 1 << 14, 520, 220);
    ctx.compute(11000);
}

/** Descend to @p key's leaf; its offset (value out) or null. */
Addr
find(pm::PmContext &ctx, const Instance &t, std::uint64_t key,
     std::uint64_t &value)
{
    Addr cur = ctx.pool().at<CtRoot>(t.rootOff)->top;
    while (isInternal(cur)) {
        const CtInternal *node = ctx.pool().at<CtInternal>(untag(cur));
        CtInternal probe{};
        ctx.load(untag(cur), &probe, sizeof(probe));
        cur = node->child[(key >> node->bit) & 1];
    }
    if (cur == kNullAddr)
        return kNullAddr;
    CtLeaf leaf{};
    ctx.load(cur, &leaf, sizeof(leaf));
    if (leaf.key != key)
        return kNullAddr;
    value = leaf.value;
    return cur;
}

/** Insert-or-update in one undo-logged transaction. */
void
insert(pm::PmContext &ctx, Instance &t, std::uint64_t key,
       std::uint64_t value)
{
    CtRoot *r = ctx.pool().at<CtRoot>(t.rootOff);

    if (r->top == kNullAddr) {
        nvml::TxContext tx(*t.pool, ctx);
        const Addr leaf_off = tx.txAlloc(sizeof(CtLeaf));
        if (leaf_off == kNullAddr) {
            tx.abort();
            return;
        }
        CtLeaf leaf{key, value, key ^ value ^ CtLeaf::kSalt};
        tx.directStore(leaf_off, &leaf, sizeof(leaf), DataClass::User);
        tx.set(r->top, leaf_off, DataClass::User);
        const std::uint64_t n = r->count + 1;
        tx.set(r->count, n, DataClass::User);
        tx.commit();
        return;
    }

    // Find the existing leaf this key diverges from.
    Addr cur = r->top;
    while (isInternal(cur)) {
        const CtInternal *node = ctx.pool().at<CtInternal>(untag(cur));
        cur = node->child[(key >> node->bit) & 1];
    }
    const CtLeaf *other = ctx.pool().at<CtLeaf>(cur);
    const std::uint64_t diff = other->key ^ key;
    if (diff == 0) {
        // Key exists: update the value in place (logged).
        nvml::TxContext tx(*t.pool, ctx);
        tx.set(ctx.pool().at<CtLeaf>(cur)->value, value,
               DataClass::User);
        const std::uint64_t sum = key ^ value ^ CtLeaf::kSalt;
        tx.set(ctx.pool().at<CtLeaf>(cur)->checksum, sum,
               DataClass::User);
        tx.commit();
        return;
    }
    const std::uint32_t crit =
        63 - static_cast<std::uint32_t>(__builtin_clzll(diff));

    nvml::TxContext tx(*t.pool, ctx);
    const Addr leaf_off = tx.txAlloc(sizeof(CtLeaf));
    if (leaf_off == kNullAddr) {
        tx.abort();
        return;
    }
    CtLeaf leaf{key, value, key ^ value ^ CtLeaf::kSalt};
    tx.directStore(leaf_off, &leaf, sizeof(leaf), DataClass::User);

    // Build the new internal node (fresh: direct stores).
    const Addr inode_off = tx.txAlloc(sizeof(CtInternal));
    if (inode_off == kNullAddr) {
        tx.abort();
        return;
    }

    // Walk again to the splice point: the first link whose subtree's
    // critical bit is below ours.
    Addr *link = &r->top;
    Addr link_holder = t.rootOff + offsetof(CtRoot, top);
    while (isInternal(*link)) {
        CtInternal *node = ctx.pool().at<CtInternal>(untag(*link));
        if (node->bit < crit)
            break;
        const unsigned dir = (key >> node->bit) & 1;
        link_holder = untag(*link) + offsetof(CtInternal, child) +
                      dir * sizeof(Addr);
        link = &node->child[dir];
    }

    CtInternal inode{};
    inode.bit = crit;
    inode.child[(key >> crit) & 1] = leaf_off;
    inode.child[((key >> crit) & 1) ^ 1] = *link;
    tx.directStore(inode_off, &inode, sizeof(inode), DataClass::User);

    // Splice: one logged pointer update.
    tx.addRange(link_holder, 8);
    const Addr tagged = inode_off | kInternalTag;
    ctx.store(link_holder, &tagged, 8, DataClass::User);

    const std::uint64_t n = r->count + 1;
    tx.set(r->count, n, DataClass::User);
    tx.commit();
}

/** Crit-bit order, leaf checksums and the committed count. */
bool
checkTree(pm::PmContext &ctx, const Instance &t, std::string *why)
{
    const CtRoot *r = ctx.pool().at<CtRoot>(t.rootOff);
    if (r->magic != CtRoot::kMagic) {
        if (why)
            *why = "bad root magic";
        return false;
    }
    std::uint64_t leaves = 0;
    bool ok = true;
    std::string err;
    // Iterative DFS validating structure and checksums.
    std::vector<std::pair<Addr, std::uint32_t>> stack; // node,max bit
    if (r->top != kNullAddr)
        stack.push_back({r->top, 64});
    std::uint64_t guard = 0;
    while (!stack.empty() && ok) {
        if (++guard > 50'000'000) {
            ok = false;
            err = "tree cycle";
            break;
        }
        auto [cur, maxbit] = stack.back();
        stack.pop_back();
        if (isInternal(cur)) {
            const CtInternal *node =
                ctx.pool().at<CtInternal>(untag(cur));
            if (node->bit >= maxbit) {
                ok = false;
                err = "crit-bit order violated";
                break;
            }
            stack.push_back({node->child[0], node->bit});
            stack.push_back({node->child[1], node->bit});
        } else {
            const CtLeaf *leaf = ctx.pool().at<CtLeaf>(cur);
            if (leaf->checksum !=
                (leaf->key ^ leaf->value ^ CtLeaf::kSalt)) {
                ok = false;
                err = "leaf checksum mismatch";
                break;
            }
            leaves++;
        }
    }
    if (ok && leaves < r->count) {
        ok = false;
        err = "fewer leaves than committed count";
    }
    if (!ok && why)
        *why = err;
    return ok;
}

class CtreeApp : public NvmlApp<Instance>
{
  public:
    explicit CtreeApp(const AppConfig &config)
        : NvmlApp<Instance>(config, sizeof(CtRoot) + (2u << 20))
    {
    }

    std::string name() const override { return "ctree"; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Instance &t = inst_[0];
        Rng rng(config_.seed * 73 + tid);
        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            // Unique keys per thread (clients insert disjoint ranges).
            const std::uint64_t key =
                (static_cast<std::uint64_t>(tid) << 48) | rng() >> 16;
            pad(ctx, &rng);
            const std::uint64_t value = rng();
            {
                std::lock_guard<std::mutex> guard(treeLock_);
                insert(ctx, t, key, value);
            }
            // Occasional lookups between inserts.
            if (op % 4 == 0) {
                std::lock_guard<std::mutex> guard(treeLock_);
                std::uint64_t found = 0;
                find(ctx, t, key, found);
            }
        }
    }

    /** @{ \name Generated-workload surface
     *
     * One private crit-bit tree + NvmlPool per worker thread over a
     * disjoint device slice (tree depth — and so per-op latency — is
     * then a pure function of the thread's own key set). Scans follow
     * the suite convention for the generated workloads: consecutive
     * key ids, one point lookup each.
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
        insert(ctx, inst_[tid], key, value);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, this);
        std::uint64_t value = 0;
        const bool found = find(ctx, inst_[tid], key, value) != kNullAddr;
        insert(ctx, inst_[tid], key, value + delta);
        return found;
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
        return formatTree(ctx, base, bytes, lanes(workload));
    }

    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        for (std::uint64_t i = 0; i < wlMap_.perThread(); i++) {
            const std::uint64_t key = wlMap_.lo(tid) + i;
            insert(ctx, inst_[tid], key, WorkloadKeymap::loadedValue(key));
        }
    }

    void
    checkStructure(pm::PmContext &ctx, Instance &t, bool clean,
                   VerifyReport &rep) override
    {
        (void)clean;
        std::string why;
        rep.check(checkTree(ctx, t, &why), "tree-intact", why);
    }

  private:
    /** Serializes run()'s threads on the shared tree. */
    std::mutex treeLock_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeCtreeApp(const core::AppConfig &config)
{
    return std::make_unique<CtreeApp>(config);
}

} // namespace whisper::apps
