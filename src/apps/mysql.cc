/**
 * @file
 * MySQL: OLTP-complex (sysbench) over a PMFS-backed data directory
 * (paper §3.2.3).
 *
 * Models the PM-relevant behaviour of InnoDB on PMFS: a table file of
 * fixed-size rows, a secondary-index file, and a redo/binlog file.
 * Each sysbench OLTP-complex transaction mixes point selects, index
 * and non-index updates, and a delete+insert pair, ending with a log
 * append (the commit record) — every write reaching PM through file
 * syscalls. Row images carry checksums so torn row updates are
 * detectable after a crash (the database's own page checksums play
 * this role in real InnoDB).
 */

#include <mutex>

#include "apps/apps.hh"
#include "apps/instance_app.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "pmfs/pmfs.hh"
#include "txlib/mnemosyne.hh" // foldChecksum

namespace whisper::apps
{

using namespace core;
using mne::foldChecksum;

namespace
{

constexpr std::size_t kRowBytes = 128;
constexpr std::size_t kRowPayload = 100;

/** One row image as stored in the table file. */
struct Row
{
    std::uint64_t id;
    std::uint64_t version;
    std::uint32_t checksum;
    std::uint32_t pad;
    std::uint8_t payload[kRowPayload];
    std::uint8_t tail[kRowBytes - 124];
};
static_assert(sizeof(Row) == kRowBytes, "Row layout drifted");

std::uint32_t
rowChecksum(const Row &row)
{
    return foldChecksum(row.payload, sizeof(row.payload)) ^
           static_cast<std::uint32_t>(row.id) ^
           static_cast<std::uint32_t>(row.version);
}

/** One database: table, secondary index and binlog on a PMFS volume. */
struct Instance
{
    std::unique_ptr<pmfs::Pmfs> fs;
    pmfs::Ino table = pmfs::kInvalidIno;
    pmfs::Ino index = pmfs::kInvalidIno;
    pmfs::Ino binlog = pmfs::kInvalidIno;
    std::uint64_t commits = 0; //!< workload binlog records appended
    std::uint64_t firstId = 0; //!< id of the row in slot 0
    std::uint64_t rows = 0;    //!< rows loaded into slots [0, rows)
};

/** Format an empty database over [@p base, @p base + @p bytes). */
Instance
formatDb(pm::PmContext &ctx, Addr base, std::size_t bytes)
{
    Instance db;
    db.fs = std::make_unique<pmfs::Pmfs>(ctx, base, bytes);
    db.fs->mkdir(ctx, "/data");
    db.table = db.fs->create(ctx, "/data/sbtest.ibd");
    db.index = db.fs->create(ctx, "/data/sbtest_k.ibd");
    db.binlog = db.fs->create(ctx, "/data/binlog.000001");
    panic_if(db.table == pmfs::kInvalidIno ||
                 db.index == pmfs::kInvalidIno ||
                 db.binlog == pmfs::kInvalidIno,
             "mysql setup failed");
    return db;
}

void
readRow(pm::PmContext &ctx, Instance &db, std::uint64_t slot, Row &row)
{
    db.fs->read(ctx, db.table, slot * kRowBytes, &row, sizeof(row));
}

/** Commit record of @p tid's op @p op (group commit of one). */
void
appendCommit(pm::PmContext &ctx, Instance &db, ThreadId tid,
             std::uint64_t op)
{
    char rec[64];
    const int n = std::snprintf(
        rec, sizeof(rec), "COMMIT tid=%u op=%llu\n", tid,
        static_cast<unsigned long long>(op));
    db.fs->append(ctx, db.binlog, rec, static_cast<std::size_t>(n));
}

/**
 * fsck, then every loaded row must carry its slot's id and a valid
 * checksum, and the binlog must end at a record boundary. Row images
 * are non-journaled user data; PMFS guarantees metadata consistency
 * only, so a crash can tear an in-flight page write — exactly the
 * PMFS contract. The filesystem fences at every journal commit, which
 * bounds the exposure to the writes of the last in-flight
 * transaction: the one index and one non-index update, i.e. at most
 * two rows. With @p post_crash set that many invalid rows are
 * tolerated (a real InnoDB would rebuild them from its redo log);
 * after a *clean* run every row must validate.
 */
bool
checkDb(pm::PmContext &ctx, Instance &db, bool post_crash,
        std::string *why)
{
    std::string fsck_why;
    if (!db.fs->fsck(ctx, &fsck_why)) {
        if (why)
            *why = "fsck: " + fsck_why;
        return false;
    }
    const std::uint64_t torn_budget = post_crash ? 2 : 0;
    std::uint64_t torn = 0;
    for (std::uint64_t r = 0; r < db.rows; r++) {
        Row row{};
        readRow(ctx, db, r, row);
        if (row.id != db.firstId + r || row.checksum != rowChecksum(row)) {
            torn++;
            if (torn > torn_budget) {
                if (why) {
                    *why = post_crash ? "more torn rows than one "
                                        "transaction can leave"
                                      : "row id/checksum mismatch";
                }
                return false;
            }
        }
    }
    // Binlog sanity: size grew monotonically and is readable.
    const std::uint64_t blog = db.fs->fileSize(ctx, db.binlog);
    if (blog > 0) {
        char c = 0;
        db.fs->read(ctx, db.binlog, blog - 1, &c, 1);
        if (c != '\n') {
            if (why)
                *why = "binlog does not end at a record boundary";
            return false;
        }
    }
    return true;
}

class MysqlApp : public PmfsApp<Instance>
{
  public:
    explicit MysqlApp(const AppConfig &config)
        : PmfsApp<Instance>(config, 8u << 20)
    {
    }

    std::string name() const override { return "mysql"; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        PmfsApp<Instance>::setup(rt);
        Instance &db = inst_[0];

        db.rows = std::max<std::uint64_t>(
            512, std::min<std::uint64_t>(config_.opsPerThread * 4,
                                         16384));
        Rng rng(config_.seed);
        std::vector<Row> chunk(32);
        for (std::uint64_t r = 0; r < db.rows; r += chunk.size()) {
            const std::uint64_t n =
                std::min<std::uint64_t>(chunk.size(), db.rows - r);
            for (std::uint64_t i = 0; i < n; i++) {
                Row &row = chunk[i];
                row = Row{};
                row.id = r + i;
                row.version = 0;
                for (auto &b : row.payload)
                    b = static_cast<std::uint8_t>(rng());
                row.checksum = rowChecksum(row);
            }
            db.fs->write(ctx, db.table, r * kRowBytes, chunk.data(),
                         n * kRowBytes);
        }
        // Index file: one 16-byte entry per row.
        std::vector<std::uint64_t> idx(db.rows * 2);
        for (std::uint64_t r = 0; r < db.rows; r++) {
            idx[r * 2] = r;
            idx[r * 2 + 1] = r * kRowBytes;
        }
        db.fs->write(ctx, db.index, 0, idx.data(),
                     idx.size() * sizeof(std::uint64_t));
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Instance &db = inst_[0];
        Rng rng(config_.seed * 241 + tid);
        ZipfianGenerator zipf(db.rows);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            // OLTP-complex: 10 point selects.
            for (int i = 0; i < 10; i++) {
                Row row{};
                readRow(ctx, db, zipf.next(rng), row);
                ctx.vStore(ctx.scratch(), 64); // result set buffering
            }
            // SQL parsing, optimizer, buffer-pool management,
            // client round trips: a sysbench OLTP-complex transaction
            // runs for around a millisecond end to end (Table 1:
            // only 60K epochs/second).
            ctx.vBurst(&rng, 1 << 14, 300, 120);
            ctx.compute(700'000);

            // 1 index update + 1 non-index update, then the commit
            // record.
            std::lock_guard<std::mutex> guard(dbLock_);
            updateRow(ctx, db, zipf.next(rng), rng, true);
            updateRow(ctx, db, zipf.next(rng), rng, false);
            appendCommit(ctx, db, tid, op);
        }
    }

  private:
    /**
     * run()'s row mutation. InnoDB writes whole pages: read the 4 KB
     * page containing the row, mutate the row image, write the page
     * back. This is what keeps MySQL's PMFS amplification near the
     * other filesystem applications' ~0.1x and its writes NTI-heavy.
     */
    static void
    updateRow(pm::PmContext &ctx, Instance &db, std::uint64_t id,
              Rng &rng, bool index_update)
    {
        const std::uint64_t rows_per_page =
            pmfs::kBlockSize / kRowBytes;
        const std::uint64_t page = id / rows_per_page;
        alignas(64) std::uint8_t page_buf[pmfs::kBlockSize];
        db.fs->read(ctx, db.table, page * pmfs::kBlockSize, page_buf,
                    sizeof(page_buf));
        auto *row = reinterpret_cast<Row *>(
            page_buf + (id % rows_per_page) * kRowBytes);
        for (int i = 0; i < 10; i++) {
            row->payload[rng.next(sizeof(row->payload))] =
                static_cast<std::uint8_t>(rng());
        }
        row->version++;
        row->checksum = rowChecksum(*row);
        db.fs->write(ctx, db.table, page * pmfs::kBlockSize, page_buf,
                     sizeof(page_buf));
        if (index_update) {
            const std::uint64_t entry[2] = {id, id * kRowBytes};
            db.fs->write(ctx, db.index, id * 16, entry, sizeof(entry));
        }
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // Each workload thread gets its own database instance over a
    // disjoint pool slice (sysbench against per-core server shards).
    // A key is a row id; row slot = the keymap's dense local index.
    // Writes keep InnoDB's shape: read the 4 KB page, overwrite the
    // row image, write the page back, update the index entry, append
    // a commit record to the binlog.

    /**
     * Per-op SQL parsing / optimizer / round-trip share. run()'s
     * sysbench transaction (~13 operations) spends compute(700'000);
     * one KV op carries a proportional slice.
     */
    static void
    wlPad(pm::PmContext &ctx)
    {
        ctx.vStore(ctx.scratch(), 8);
        ctx.vBurst(ctx.scratch(), 1 << 14, 25, 10);
        ctx.compute(55'000);
    }

    static void
    wlFillRow(std::uint64_t key, std::uint64_t value, Row &row)
    {
        row = Row{};
        row.id = key;
        row.version = value;
        std::uint64_t seed = value;
        for (std::size_t i = 0; i + 8 <= sizeof(row.payload); i += 8) {
            const std::uint64_t z = splitmix64(seed);
            std::memcpy(row.payload + i, &z, 8);
        }
        row.checksum = rowChecksum(row);
    }

    /** Page-granularity row overwrite, in updateRow()'s shape. */
    static void
    wlWriteRow(pm::PmContext &ctx, Instance &db, std::uint64_t slot,
               const Row &row)
    {
        const std::uint64_t rows_per_page =
            pmfs::kBlockSize / kRowBytes;
        const std::uint64_t page = slot / rows_per_page;
        alignas(64) std::uint8_t page_buf[pmfs::kBlockSize] = {};
        if (page * pmfs::kBlockSize < db.fs->fileSize(ctx, db.table)) {
            db.fs->read(ctx, db.table, page * pmfs::kBlockSize,
                        page_buf, sizeof(page_buf));
        }
        std::memcpy(page_buf + (slot % rows_per_page) * kRowBytes,
                    &row, sizeof(row));
        db.fs->write(ctx, db.table, page * pmfs::kBlockSize, page_buf,
                     sizeof(page_buf));
        const std::uint64_t entry[2] = {row.id, slot * kRowBytes};
        db.fs->write(ctx, db.index, slot * 16, entry, sizeof(entry));
    }

  public:
    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        wlPad(ctx);
        Row row{};
        readRow(ctx, inst_[tid], wlMap_.localIndex(tid, key), row);
        ctx.vStore(ctx.scratch(), 64); // result set buffering
        return row.id == key;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        Instance &db = inst_[tid];
        wlPad(ctx);
        Row row{};
        wlFillRow(key, value, row);
        wlWriteRow(ctx, db, wlMap_.localIndex(tid, key), row);
        appendCommit(ctx, db, tid, db.commits++);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        Instance &db = inst_[tid];
        wlPad(ctx);
        const std::uint64_t slot = wlMap_.localIndex(tid, key);
        Row row{};
        readRow(ctx, db, slot, row);
        const bool found = row.id == key;
        wlFillRow(key, (found ? row.version : 0) + delta, row);
        wlWriteRow(ctx, db, slot, row);
        appendCommit(ctx, db, tid, db.commits++);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        wlPad(ctx);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = wlMap_.scanKey(tid, key, j);
            Row row{};
            readRow(ctx, inst_[tid], wlMap_.localIndex(tid, k), row);
            if (row.id == k)
                found++;
        }
        return found;
    }

  protected:
    Instance
    format(pm::PmContext &ctx, Addr base, std::size_t bytes,
           bool workload) override
    {
        (void)workload;
        return formatDb(ctx, base, bytes);
    }

    /** Rows page by page (one syscall per 32 rows, as setup() loads). */
    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        Instance &db = inst_[tid];
        db.firstId = wlMap_.lo(tid);
        db.rows = wlMap_.perThread();
        std::vector<Row> chunk(32);
        for (std::uint64_t s = 0; s < db.rows; s += chunk.size()) {
            const std::uint64_t n =
                std::min<std::uint64_t>(chunk.size(), db.rows - s);
            for (std::uint64_t i = 0; i < n; i++) {
                const std::uint64_t key = db.firstId + s + i;
                wlFillRow(key, WorkloadKeymap::loadedValue(key), chunk[i]);
            }
            db.fs->write(ctx, db.table, s * kRowBytes, chunk.data(),
                         n * kRowBytes);
        }
        std::vector<std::uint64_t> idx(db.rows * 2);
        for (std::uint64_t s = 0; s < db.rows; s++) {
            idx[s * 2] = db.firstId + s;
            idx[s * 2 + 1] = s * kRowBytes;
        }
        if (!idx.empty()) {
            db.fs->write(ctx, db.index, 0, idx.data(),
                         idx.size() * sizeof(std::uint64_t));
        }
    }

    void
    checkStructure(pm::PmContext &ctx, Instance &db, bool clean,
                   VerifyReport &rep) override
    {
        std::string why;
        rep.check(checkDb(ctx, db, !clean, &why), "db-intact", why);
    }

  private:
    /** Serializes run()'s threads on the shared database. */
    std::mutex dbLock_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeMysqlApp(const core::AppConfig &config)
{
    return std::make_unique<MysqlApp>(config);
}

} // namespace whisper::apps
