/**
 * @file
 * Vacation: the STAMP travel-reservation OLTP system, persisted with
 * Mnemosyne (paper §3.2.2).
 *
 * Three item tables (cars, flights, rooms) implemented as persistent
 * binary search trees, a customer table with per-customer reservation
 * lists, and — exactly as the paper calls out — *global counters* of
 * reservations that every client transaction updates, the suite's
 * main source of cross-thread epoch dependencies.
 *
 * Each reservation/cancellation is a Mnemosyne durable transaction:
 * updates are redo-logged with NTI+fence, applied at commit with
 * cacheable stores + flushes, and the log is truncated entry by
 * entry. Reservation nodes come from pmalloc inside the transaction;
 * on a crash Mnemosyne may leak them (the documented trade-off), but
 * the tables stay consistent.
 */

#include <bit>
#include <mutex>

#include "apps/apps.hh"
#include "apps/instance_app.hh"
#include "common/logging.hh"
#include "txlib/mnemosyne.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

constexpr std::uint64_t kItemSalt = 0x57AC4710ull;

enum ItemType : std::uint32_t { kCar = 0, kFlight = 1, kRoom = 2 };

/** BST node for one reservable item. */
struct Item
{
    std::uint64_t id;
    std::uint32_t numFree;
    std::uint32_t numTotal;
    std::uint64_t price;
    std::uint64_t checksum;
    Addr left;
    Addr right;
};

std::uint64_t
itemChecksum(const Item &it)
{
    return it.id ^ it.numFree ^
           (static_cast<std::uint64_t>(it.numTotal) << 32) ^ it.price ^
           kItemSalt;
}

/** One reservation held by a customer. */
struct Reservation
{
    std::uint32_t type;
    std::uint32_t pad;
    std::uint64_t itemId;
    std::uint64_t price;
    Addr next;
};

/** Customer record (fixed array, pre-created). */
struct Customer
{
    std::uint64_t id;
    Addr reservations;
};

/** Persistent root. */
struct VacationRoot
{
    std::uint64_t magic;
    Addr itemTrees[3];
    std::uint64_t totalReserved[3]; //!< the shared global counters
    Addr customersOff;
    std::uint64_t customerCount;

    static constexpr std::uint64_t kMagic = 0x57AC57ACull;
};

/**
 * One reservation system: the root (item trees, global counters,
 * customer table) in front of its own Mnemosyne heap.
 */
struct Instance
{
    Addr rootOff = 0;
    std::unique_ptr<mne::MnemosyneHeap> heap;
    std::uint64_t customers = 0; //!< customer table length
};

/**
 * Format empty item trees and a table of @p customers customers
 * (none for the workload's item-only shards) over [@p base,
 * @p base + @p bytes).
 */
Instance
formatTables(pm::PmContext &ctx, Addr base, std::size_t bytes,
             unsigned lanes, std::uint64_t customers)
{
    Instance v;
    v.rootOff = base;
    v.customers = customers;
    const Addr heap_base =
        lineBase(base + sizeof(VacationRoot) + kCacheLineSize);
    v.heap = std::make_unique<mne::MnemosyneHeap>(
        ctx, heap_base, base + bytes - heap_base, lanes);

    VacationRoot root{};
    root.magic = VacationRoot::kMagic;
    for (auto &t : root.itemTrees)
        t = kNullAddr;
    root.customersOff = kNullAddr;
    root.customerCount = customers;
    ctx.store(base, &root, sizeof(root), DataClass::User);
    ctx.flush(base, sizeof(root));
    ctx.fence(FenceKind::Durability);
    if (customers == 0)
        return v;

    // Customer table: a contiguous persistent array.
    const Addr cust_off =
        v.heap->pmalloc(ctx, customers * sizeof(Customer));
    panic_if(cust_off == kNullAddr, "vacation: customer table");
    for (std::uint64_t c = 0; c < customers; c++) {
        Customer cust{c, kNullAddr};
        ctx.store(cust_off + c * sizeof(Customer), &cust, sizeof(cust),
                  DataClass::User);
    }
    ctx.flush(cust_off, customers * sizeof(Customer));
    VacationRoot *r = ctx.pool().at<VacationRoot>(base);
    ctx.storeField(r->customersOff, cust_off, DataClass::User);
    ctx.flush(base + offsetof(VacationRoot, customersOff), 8);
    ctx.fence(FenceKind::Durability);
    return v;
}

/** Client-side query planning and STAMP's volatile manager tables
 *  (paper Fig. 6: vacation is the most DRAM-heavy app at ~0.4% PM
 *  accesses). */
void
pad(pm::PmContext &ctx, const void *base)
{
    ctx.vBurst(base, 1 << 15, 2100, 900);
    ctx.compute(9000);
}

/** Load-phase BST insert (persist as we go, no transactions). */
void
insertItemSetup(pm::PmContext &ctx, Instance &v, ItemType type,
                std::uint64_t id, std::uint32_t total,
                std::uint64_t price)
{
    const Addr off = v.heap->pmalloc(ctx, sizeof(Item));
    panic_if(off == kNullAddr, "vacation heap exhausted");
    Item it{};
    it.id = id;
    it.numFree = total;
    it.numTotal = total;
    it.price = price;
    it.left = it.right = kNullAddr;
    it.checksum = itemChecksum(it);
    ctx.store(off, &it, sizeof(it), DataClass::User);
    ctx.flush(off, sizeof(it));
    ctx.fence(FenceKind::Ordering);

    Addr link_off = v.rootOff + offsetof(VacationRoot, itemTrees) +
                    type * sizeof(Addr);
    Addr cur = *ctx.pool().at<Addr>(link_off);
    while (cur != kNullAddr) {
        const Item *node = ctx.pool().at<Item>(cur);
        link_off = cur + (id < node->id ? offsetof(Item, left)
                                        : offsetof(Item, right));
        cur = *ctx.pool().at<Addr>(link_off);
    }
    ctx.store(link_off, &off, 8, DataClass::User);
    ctx.flush(link_off, 8);
    ctx.fence(FenceKind::Ordering);
}

Addr
findItem(pm::PmContext &ctx, const Instance &v, ItemType type,
         std::uint64_t id)
{
    Addr cur = ctx.pool().at<VacationRoot>(v.rootOff)->itemTrees[type];
    while (cur != kNullAddr) {
        Item probe{};
        ctx.load(cur, &probe, sizeof(probe));
        if (probe.id == id)
            return cur;
        cur = id < probe.id ? probe.left : probe.right;
    }
    return kNullAddr;
}

Customer *
customer(pm::PmContext &ctx, const Instance &v, std::uint64_t cust_id)
{
    const Addr base = ctx.pool().at<VacationRoot>(v.rootOff)->customersOff;
    return ctx.pool().at<Customer>(base + cust_id * sizeof(Customer));
}

void
makeReservation(pm::PmContext &ctx, Instance &v, ItemType type,
                std::uint64_t item_id, std::uint64_t cust_id)
{
    const Addr item_off = findItem(ctx, v, type, item_id);
    if (item_off == kNullAddr)
        return;

    mne::Transaction tx(*v.heap, ctx);
    const std::uint32_t num_free =
        tx.get(ctx.pool().at<Item>(item_off)->numFree);
    if (num_free == 0) {
        tx.abort();
        return;
    }

    // Reserve: decrement availability + fix the checksum, one logged
    // update covering the contiguous fields.
    Item staged{};
    tx.read(item_off, &staged, sizeof(staged));
    staged.numFree = num_free - 1;
    staged.checksum = itemChecksum(staged);
    tx.update(item_off + offsetof(Item, numFree),
              reinterpret_cast<const std::uint8_t *>(&staged) +
                  offsetof(Item, numFree),
              offsetof(Item, left) - offsetof(Item, numFree),
              DataClass::User);

    // Record the reservation on the customer.
    const Addr res_off = tx.pmalloc(sizeof(Reservation));
    if (res_off == kNullAddr) {
        tx.abort();
        return;
    }
    Customer *cust = customer(ctx, v, cust_id);
    Reservation res{static_cast<std::uint32_t>(type), 0, item_id,
                    staged.price, tx.get(cust->reservations)};
    tx.update(res_off, &res, sizeof(res), DataClass::User);
    tx.set(cust->reservations, res_off, DataClass::User);

    // The global counter: every thread's transactions write this one
    // cache line (the paper's cross-dependency source).
    VacationRoot *r = ctx.pool().at<VacationRoot>(v.rootOff);
    const std::uint64_t count = tx.get(r->totalReserved[type]) + 1;
    tx.set(r->totalReserved[type], count, DataClass::User);

    tx.commit();
}

void
cancelReservation(pm::PmContext &ctx, Instance &v, ItemType type,
                  std::uint64_t cust_id)
{
    Customer *cust = customer(ctx, v, cust_id);
    // Find the first reservation of this type.
    Addr holder = ctx.pool().offsetOf(&cust->reservations);
    Addr cur = cust->reservations;
    while (cur != kNullAddr) {
        Reservation probe{};
        ctx.load(cur, &probe, sizeof(probe));
        if (probe.type == static_cast<std::uint32_t>(type))
            break;
        holder = cur + offsetof(Reservation, next);
        cur = probe.next;
    }
    if (cur == kNullAddr)
        return;
    const Reservation *res = ctx.pool().at<Reservation>(cur);
    const Addr item_off = findItem(ctx, v, type, res->itemId);
    if (item_off == kNullAddr)
        return;

    mne::Transaction tx(*v.heap, ctx);
    Item staged{};
    tx.read(item_off, &staged, sizeof(staged));
    staged.numFree++;
    staged.checksum = itemChecksum(staged);
    tx.update(item_off + offsetof(Item, numFree),
              reinterpret_cast<const std::uint8_t *>(&staged) +
                  offsetof(Item, numFree),
              offsetof(Item, left) - offsetof(Item, numFree),
              DataClass::User);

    // Unlink + release the node.
    tx.update(holder, &res->next, 8, DataClass::User);
    tx.pfree(cur);

    VacationRoot *r = ctx.pool().at<VacationRoot>(v.rootOff);
    const std::uint64_t count = tx.get(r->totalReserved[type]) - 1;
    tx.set(r->totalReserved[type], count, DataClass::User);

    tx.commit();
}

/** Durable-transaction car insert (workload inserts). */
void
insertItemTx(pm::PmContext &ctx, Instance &v, std::uint64_t id,
             std::uint64_t price)
{
    mne::Transaction tx(*v.heap, ctx);
    const Addr off = tx.pmalloc(sizeof(Item));
    if (off == kNullAddr) {
        tx.abort();
        panic("vacation workload heap exhausted");
    }
    Item it{};
    it.id = id;
    it.numFree = 4;
    it.numTotal = 4;
    it.price = price;
    it.left = it.right = kNullAddr;
    it.checksum = itemChecksum(it);
    tx.update(off, &it, sizeof(it), DataClass::User);

    Addr link_off = v.rootOff + offsetof(VacationRoot, itemTrees) +
                    kCar * sizeof(Addr);
    Addr cur = tx.get(*ctx.pool().at<Addr>(link_off));
    while (cur != kNullAddr) {
        const Item *node = ctx.pool().at<Item>(cur);
        link_off = cur + (id < node->id ? offsetof(Item, left)
                                        : offsetof(Item, right));
        cur = tx.get(*ctx.pool().at<Addr>(link_off));
    }
    tx.update(link_off, &off, 8, DataClass::User);
    tx.commit();
}

/** Durable-transaction price update (existing item). */
void
updatePriceTx(pm::PmContext &ctx, Instance &v, Addr item_off,
              std::uint64_t price)
{
    mne::Transaction tx(*v.heap, ctx);
    Item staged{};
    tx.read(item_off, &staged, sizeof(staged));
    staged.price = price;
    staged.checksum = itemChecksum(staged);
    tx.update(item_off + offsetof(Item, price), &staged.price, 8,
              DataClass::User);
    tx.set(ctx.pool().at<Item>(item_off)->checksum, staged.checksum,
           DataClass::User);
    tx.commit();
}

/**
 * Item trees (BST order, checksums, capacity), customer reservation
 * lists and the global counters must all agree.
 */
bool
checkTables(pm::PmContext &ctx, const Instance &v, std::string *why)
{
    const VacationRoot *r = ctx.pool().at<VacationRoot>(v.rootOff);
    if (r->magic != VacationRoot::kMagic) {
        if (why)
            *why = "bad root magic";
        return false;
    }

    // 1. Item trees: BST order + checksums + per-item capacity.
    std::uint64_t reserved_by_items[3] = {0, 0, 0};
    for (int t = 0; t < 3; t++) {
        std::vector<std::pair<Addr, std::pair<std::uint64_t,
                                              std::uint64_t>>>
            stack;
        if (r->itemTrees[t] != kNullAddr)
            stack.push_back({r->itemTrees[t], {0, ~std::uint64_t(0)}});
        while (!stack.empty()) {
            auto [off, range] = stack.back();
            stack.pop_back();
            const Item *it = ctx.pool().at<Item>(off);
            if (it->checksum != itemChecksum(*it)) {
                if (why)
                    *why = "item checksum mismatch";
                return false;
            }
            if (it->id < range.first || it->id > range.second) {
                if (why)
                    *why = "BST order violated";
                return false;
            }
            if (it->numFree > it->numTotal) {
                if (why)
                    *why = "numFree above capacity";
                return false;
            }
            reserved_by_items[t] += it->numTotal - it->numFree;
            if (it->left != kNullAddr)
                stack.push_back({it->left, {range.first, it->id - 1}});
            if (it->right != kNullAddr)
                stack.push_back({it->right, {it->id + 1, range.second}});
        }
    }

    // 2. Customer reservation lists vs the counters and items.
    std::uint64_t reserved_by_lists[3] = {0, 0, 0};
    for (std::uint64_t c = 0; c < v.customers; c++) {
        Addr cur = customer(ctx, v, c)->reservations;
        std::uint64_t guard = 0;
        while (cur != kNullAddr) {
            if (++guard > 10'000'000) {
                if (why)
                    *why = "reservation list cycle";
                return false;
            }
            const Reservation *res = ctx.pool().at<Reservation>(cur);
            if (res->type > 2) {
                if (why)
                    *why = "reservation with bad type";
                return false;
            }
            reserved_by_lists[res->type]++;
            cur = res->next;
        }
    }
    for (int t = 0; t < 3; t++) {
        if (reserved_by_lists[t] != r->totalReserved[t] ||
            reserved_by_items[t] != r->totalReserved[t]) {
            if (why)
                *why = "reservation counters out of sync";
            return false;
        }
    }
    return true;
}

class VacationApp : public MneApp<Instance>
{
  public:
    explicit VacationApp(const AppConfig &config)
        : MneApp<Instance>(config, sizeof(VacationRoot) + (2u << 20))
    {
    }

    std::string name() const override { return "vacation"; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        // Power of two so the scrambled load order is a bijection
        // (no duplicate item ids).
        itemCount_ = std::bit_floor(std::max<std::uint64_t>(
            256, std::min<std::uint64_t>(config_.opsPerThread * 2,
                                         16384)));
        MneApp<Instance>::setup(rt);

        // Populate the three item trees (setup phase; plain persists).
        Rng rng(config_.seed);
        for (int t = 0; t < 3; t++) {
            ScrambledSequence order(itemCount_, rng);
            for (std::uint64_t i = 0; i < itemCount_; i++) {
                insertItemSetup(ctx, inst_[0], static_cast<ItemType>(t),
                                order.at(i), 4 + rng.next(4),
                                50 + rng.next(450));
            }
        }
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Instance &v = inst_[0];
        Rng rng(config_.seed * 17 + tid);
        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const auto type = static_cast<ItemType>(rng.next(3));
            const std::uint64_t item_id = rng.next(itemCount_);
            const std::uint64_t cust_id = rng.next(v.customers);
            pad(ctx, &item_id);
            const bool reserve = rng.chance(0.8);
            std::lock_guard<std::mutex> guard(tableLock_);
            if (reserve)
                makeReservation(ctx, v, type, item_id, cust_id);
            else
                cancelReservation(ctx, v, type, cust_id);
        }
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // The KV workload maps onto the item tables: a key is an item id in
    // a per-thread car tree, the value is its price. Each workload
    // thread owns a private instance with no customers over a disjoint
    // pool slice (the STAMP suite's data-partitioned client mode), so
    // op costs do not depend on cross-thread interleaving.
    // Reservations and the global counters stay a run()-only feature;
    // the shared check then validates tree shape and checksums.

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, &key);
        return findItem(ctx, inst_[tid], kCar, key) != kNullAddr;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        Instance &v = inst_[tid];
        pad(ctx, &key);
        const Addr off = findItem(ctx, v, kCar, key);
        if (off != kNullAddr)
            updatePriceTx(ctx, v, off, value);
        else
            insertItemTx(ctx, v, key, value);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        Instance &v = inst_[tid];
        pad(ctx, &key);
        const Addr off = findItem(ctx, v, kCar, key);
        if (off == kNullAddr) {
            insertItemTx(ctx, v, key, delta);
            return false;
        }
        std::uint64_t price = 0;
        ctx.load(off + offsetof(Item, price), &price, 8);
        updatePriceTx(ctx, v, off, price + delta);
        return true;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, &key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            if (findItem(ctx, inst_[tid], kCar,
                         wlMap_.scanKey(tid, key, j)) != kNullAddr)
                found++;
        }
        return found;
    }

  protected:
    /** The paper run's tables have customers; a client's have none. */
    Instance
    format(pm::PmContext &ctx, Addr base, std::size_t bytes,
           bool workload) override
    {
        return formatTables(
            ctx, base, bytes, lanes(workload),
            workload ? 0 : std::max<std::uint64_t>(64, itemCount_ / 4));
    }

    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        // Scrambled insertion order keeps the BST shallow
        // (sequential order would degrade it to a linked list).
        Rng order_rng(config_.seed ^ (0xace1ull + tid));
        ScrambledSequence order(wlMap_.perThread(), order_rng);
        for (std::uint64_t i = 0; i < wlMap_.perThread(); i++) {
            const std::uint64_t key = wlMap_.lo(tid) + order.at(i);
            insertItemSetup(ctx, inst_[tid], kCar, key, 4,
                            key * 0x9e3779b97f4a7c15ull);
        }
    }

    void
    checkStructure(pm::PmContext &ctx, Instance &v, bool clean,
                   VerifyReport &rep) override
    {
        (void)clean;
        std::string why;
        rep.check(checkTables(ctx, v, &why), "tables-intact", why);
    }

  private:
    std::uint64_t itemCount_ = 0;
    /** Serializes run()'s threads on the shared tables. */
    std::mutex tableLock_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeVacationApp(const core::AppConfig &config)
{
    return std::make_unique<VacationApp>(config);
}

} // namespace whisper::apps
