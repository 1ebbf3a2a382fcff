/**
 * @file
 * Exim: a mail server spooling onto PMFS (paper §3.2.3).
 *
 * Follows the paper's description of Exim's per-connection work: a
 * master accepts a message, a child writes it to a spool file,
 * another appends it to the recipient's mailbox (one of 250
 * mailboxes), and a third appends a delivery-log record; the spool
 * file is then removed. Message bodies are ~100 KB-class payloads
 * scaled down with the run size (postal profile, Table 1).
 */

#include <atomic>
#include <cstring>

#include "apps/apps.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "pmfs/pmfs.hh"

namespace whisper::apps
{

using namespace core;

namespace
{

constexpr unsigned kMailboxes = 32;

std::string
mailboxPath(unsigned m)
{
    return "/mail/user" + std::to_string(m);
}

/** One mail server: a PMFS volume with mailboxes and a delivery log. */
struct Instance
{
    std::unique_ptr<pmfs::Pmfs> fs;
    pmfs::Ino log = pmfs::kInvalidIno;
    pmfs::Ino boxes[kMailboxes] = {};
};

/**
 * Format a volume over [@p base, @p base + @p bytes): the spool
 * directory (when @p spool), the mailboxes and the delivery log.
 */
Instance
formatVolume(pm::PmContext &ctx, Addr base, std::size_t bytes,
             bool spool)
{
    Instance v;
    v.fs = std::make_unique<pmfs::Pmfs>(ctx, base, bytes);
    if (spool)
        v.fs->mkdir(ctx, "/spool");
    v.fs->mkdir(ctx, "/mail");
    v.log = v.fs->create(ctx, "/mainlog");
    panic_if(v.log == pmfs::kInvalidIno, "exim setup failed");
    for (unsigned m = 0; m < kMailboxes; m++) {
        v.boxes[m] = v.fs->create(ctx, mailboxPath(m));
        panic_if(v.boxes[m] == pmfs::kInvalidIno,
                 "mailbox create failed");
    }
    return v;
}

/** SMTP session latency, process spawning (Exim forks three children
 *  per delivery), header rewriting. This dominates the wall clock:
 *  Table 1 measures only 6250 epochs/second for exim. */
void
pad(pm::PmContext &ctx, const void *base)
{
    ctx.vStore(base, 128);
    ctx.vBurst(base, 1 << 14, 400, 200);
    ctx.compute(12'000'000);
}

class EximApp : public WhisperApp
{
  public:
    explicit EximApp(const AppConfig &config) : WhisperApp(config) {}

    std::string name() const override { return "exim"; }
    AccessLayer layer() const override { return AccessLayer::Filesystem; }

    void
    setup(Runtime &rt) override
    {
        inst_.clear();
        inst_.push_back(
            formatVolume(rt.ctx(0), 0, config_.poolBytes, true));
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Instance &v = inst_[0];
        Rng rng(config_.seed * 59 + tid);
        // Message bodies: 8-24 KB (the postal 100 KB profile scaled
        // to the run size; the access pattern — multi-block appends —
        // is what matters).
        std::vector<std::uint8_t> msg(24 << 10);
        for (auto &b : msg)
            b = static_cast<std::uint8_t>(rng());

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const std::uint64_t id = nextMsg_.fetch_add(1);
            const std::size_t bytes = (8 << 10) + rng.next(16 << 10);
            const unsigned mbox =
                static_cast<unsigned>(rng.next(kMailboxes));
            pad(ctx, msg.data());

            // 1. Receive into the spool.
            const std::string spool =
                "/spool/m" + std::to_string(id);
            const pmfs::Ino sino = v.fs->create(ctx, spool);
            if (sino == pmfs::kInvalidIno)
                continue;
            v.fs->write(ctx, sino, 0, msg.data(), bytes);

            // 2. Deliver: append to the recipient's mailbox. The
            // counter is charged first so that a crash point inside
            // the append can only lose the delivery, never leave the
            // mailbox ahead of the counter (verifyRecovered's bound).
            delivered_[mbox].fetch_add(bytes);
            v.fs->append(ctx, v.boxes[mbox], msg.data(), bytes);

            // 3. Log the delivery.
            char line[96];
            const int n = std::snprintf(
                line, sizeof(line),
                "%llu delivered msg %llu to mbox %u (%zu bytes)\n",
                static_cast<unsigned long long>(ctx.now()),
                static_cast<unsigned long long>(id), mbox, bytes);
            v.fs->append(ctx, v.log, line, static_cast<std::size_t>(n));

            // 4. Remove the spool file.
            v.fs->unlink(ctx, spool);
        }
    }

    VerifyReport verify(Runtime &rt) override { return checkRun(rt, false); }

    void recover(Runtime &rt) override { inst_[0].fs->mount(rt.ctx(0)); }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        VerifyReport rep = report();
        checkPmfs(rt.ctx(0), *inst_[0].fs, rep);
        return rep;
    }

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        return checkRun(rt, true);
    }

  protected:
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        inst_[0].fs->scrub(rt.ctx(0), lines, rep);
    }

  private:
    /**
     * fsck, and every completed delivery in its mailbox. After a
     * crash (@p post_crash) a mailbox may have lost the last in-flight
     * delivery but can never exceed what was handed to the FS, and
     * sizes must still be block-map consistent (fsck).
     */
    VerifyReport
    checkRun(Runtime &rt, bool post_crash)
    {
        pm::PmContext &ctx = rt.ctx(0);
        Instance &v = inst_[0];
        VerifyReport rep = report();
        std::string why;
        rep.check(v.fs->fsck(ctx, &why), "fsck", why);
        for (unsigned m = 0; m < kMailboxes; m++) {
            const std::uint64_t size = v.fs->fileSize(ctx, v.boxes[m]);
            const std::uint64_t sent = delivered_[m].load();
            if (!rep.check(post_crash ? size <= sent : size == sent,
                           "mailbox-sizes",
                           "mailbox " + std::to_string(m) +
                               (post_crash ? " grew beyond deliveries"
                                           : " size mismatch")))
                break;
        }
        return rep;
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // Each workload thread runs a private Exim instance (mailboxes +
    // delivery log) on its own PMFS volume over a disjoint pool slice.
    // A key is a message slot inside one of the mailbox files
    // (256-byte summaries in place of full bodies); a put is a
    // delivery — rewrite the slot, then append a line to the shared
    // per-volume delivery log, preserving Exim's journaled-append
    // profile at KV-op granularity.

    static constexpr std::size_t kWlRecordBytes = 256;

    /** run()'s per-delivery padding over a key-stamped header. */
    static void
    wlPad(pm::PmContext &ctx, std::uint64_t key)
    {
        std::uint8_t buf[128] = {};
        std::memcpy(buf, &key, 8);
        pad(ctx, buf);
    }

    static void
    wlFillRecord(std::uint64_t key, std::uint64_t value,
                 std::uint8_t out[kWlRecordBytes])
    {
        std::uint64_t words[kWlRecordBytes / 8];
        words[0] = key;
        words[1] = value;
        words[2] = key ^ value;
        std::uint64_t seed = value;
        for (std::size_t i = 3; i < kWlRecordBytes / 8; i++)
            words[i] = splitmix64(seed);
        std::memcpy(out, words, kWlRecordBytes);
    }

    static void
    wlSlot(std::uint64_t local_index, unsigned &box,
           std::uint64_t &slot)
    {
        box = static_cast<unsigned>(local_index % kMailboxes);
        slot = local_index / kMailboxes;
    }

    static void
    wlLogDelivery(pm::PmContext &ctx, Instance &v, std::uint64_t key,
                  unsigned box)
    {
        char line[64];
        const int n = std::snprintf(
            line, sizeof(line), "delivered msg %llu to mbox %u\n",
            static_cast<unsigned long long>(key), box);
        v.fs->append(ctx, v.log, line, static_cast<std::size_t>(n));
    }

  public:
    void
    workloadSetup(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        wlMap_ = map;
        inst_.clear();
        const PoolSlices slices(config_.poolBytes, map.threads, 8u << 20,
                                "exim");
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            inst_.push_back(
                formatVolume(ctx, slices.base(t), slices.bytes, false));
            Instance &v = inst_[t];
            // Preload in bounded syscalls: each write journals
            // per-block metadata in one transaction, so whole-mailbox
            // writes at large key counts would overflow a journal
            // segment. 128 KiB per call stays well inside it.
            constexpr std::uint64_t kPreloadChunkBytes = 128u << 10;
            std::vector<std::uint8_t> buf;
            for (unsigned m = 0; m < kMailboxes; m++) {
                const std::uint64_t recs =
                    map.perThread() / kMailboxes +
                    (m < map.perThread() % kMailboxes ? 1 : 0);
                if (recs == 0)
                    continue;
                buf.resize(recs * kWlRecordBytes);
                for (std::uint64_t s = 0; s < recs; s++) {
                    const std::uint64_t key =
                        map.lo(t) + s * kMailboxes + m;
                    wlFillRecord(key, key * 0x9e3779b97f4a7c15ull,
                                 buf.data() + s * kWlRecordBytes);
                }
                for (std::uint64_t off = 0; off < buf.size();
                     off += kPreloadChunkBytes) {
                    const std::uint64_t n = std::min<std::uint64_t>(
                        kPreloadChunkBytes, buf.size() - off);
                    v.fs->write(ctx, v.boxes[m], off, buf.data() + off,
                                n);
                }
            }
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        Instance &v = inst_[tid];
        wlPad(ctx, key);
        unsigned box = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), box, slot);
        std::uint8_t rec[kWlRecordBytes];
        v.fs->read(ctx, v.boxes[box], slot * kWlRecordBytes, rec,
                   sizeof(rec));
        std::uint64_t stored = 0;
        std::memcpy(&stored, rec, 8);
        return stored == key;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        Instance &v = inst_[tid];
        wlPad(ctx, key);
        unsigned box = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), box, slot);
        std::uint8_t rec[kWlRecordBytes];
        wlFillRecord(key, value, rec);
        v.fs->write(ctx, v.boxes[box], slot * kWlRecordBytes, rec,
                    sizeof(rec));
        wlLogDelivery(ctx, v, key, box);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        Instance &v = inst_[tid];
        wlPad(ctx, key);
        unsigned box = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), box, slot);
        std::uint8_t rec[kWlRecordBytes];
        v.fs->read(ctx, v.boxes[box], slot * kWlRecordBytes, rec,
                   sizeof(rec));
        std::uint64_t stored = 0, value = 0;
        std::memcpy(&stored, rec, 8);
        std::memcpy(&value, rec + 8, 8);
        const bool found = stored == key;
        wlFillRecord(key, (found ? value : 0) + delta, rec);
        v.fs->write(ctx, v.boxes[box], slot * kWlRecordBytes, rec,
                    sizeof(rec));
        wlLogDelivery(ctx, v, key, box);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        Instance &v = inst_[tid];
        wlPad(ctx, key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = wlMap_.scanKey(tid, key, j);
            unsigned box = 0;
            std::uint64_t slot = 0;
            wlSlot(wlMap_.localIndex(tid, k), box, slot);
            std::uint8_t rec[kWlRecordBytes];
            v.fs->read(ctx, v.boxes[box], slot * kWlRecordBytes, rec,
                       sizeof(rec));
            std::uint64_t stored = 0;
            std::memcpy(&stored, rec, 8);
            if (stored == k)
                found++;
        }
        return found;
    }

    VerifyReport
    workloadCheck(Runtime &rt) override
    {
        VerifyReport rep = report();
        for (unsigned t = 0; t < inst_.size(); t++) {
            // A clean run leaves the descriptor COMMITTED (commit is
            // lazy about the FREE transition); mount-time recovery
            // retires it, exactly like the run path's recover().
            inst_[t].fs->mount(rt.ctx(t));
            checkPmfs(rt.ctx(t), *inst_[t].fs, rep);
        }
        return rep;
    }

  private:
    /**
     * The paper run's one server over the whole pool (setup()), or
     * one server per workload thread (workloadSetup()).
     */
    std::vector<Instance> inst_;
    std::atomic<std::uint64_t> nextMsg_{0};
    std::atomic<std::uint64_t> delivered_[kMailboxes] = {};
    core::WorkloadKeymap wlMap_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeEximApp(const core::AppConfig &config)
{
    return std::make_unique<EximApp>(config);
}

} // namespace whisper::apps
