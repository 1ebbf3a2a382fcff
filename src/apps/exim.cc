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

class EximApp : public WhisperApp
{
  public:
    explicit EximApp(const AppConfig &config) : WhisperApp(config) {}

    std::string name() const override { return "exim"; }
    AccessLayer layer() const override { return AccessLayer::Filesystem; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        fs_ = std::make_unique<pmfs::Pmfs>(ctx, 0, config_.poolBytes);
        fs_->mkdir(ctx, "/spool");
        fs_->mkdir(ctx, "/mail");
        logIno_ = fs_->create(ctx, "/mainlog");
        panic_if(logIno_ == pmfs::kInvalidIno, "exim setup failed");
        for (unsigned m = 0; m < kMailboxes; m++) {
            const pmfs::Ino ino = fs_->create(ctx, mailboxPath(m));
            panic_if(ino == pmfs::kInvalidIno, "mailbox create failed");
            mailboxIno_[m] = ino;
        }
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
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

            // SMTP session latency, process spawning (Exim forks
            // three children per delivery), header rewriting. This
            // dominates the wall clock: Table 1 measures only 6250
            // epochs/second for exim.
            ctx.vStore(msg.data(), 128);
            ctx.vBurst(msg.data(), 1 << 14, 400, 200);
            ctx.compute(12'000'000);

            // 1. Receive into the spool.
            const std::string spool =
                "/spool/m" + std::to_string(id);
            const pmfs::Ino sino = fs_->create(ctx, spool);
            if (sino == pmfs::kInvalidIno)
                continue;
            fs_->write(ctx, sino, 0, msg.data(), bytes);

            // 2. Deliver: append to the recipient's mailbox. The
            // counter is charged first so that a crash point inside
            // the append can only lose the delivery, never leave the
            // mailbox ahead of the counter (verifyRecovered's bound).
            delivered_[mbox].fetch_add(bytes);
            fs_->append(ctx, mailboxIno_[mbox], msg.data(), bytes);

            // 3. Log the delivery.
            char line[96];
            const int n = std::snprintf(
                line, sizeof(line),
                "%llu delivered msg %llu to mbox %u (%zu bytes)\n",
                static_cast<unsigned long long>(ctx.now()),
                static_cast<unsigned long long>(id), mbox, bytes);
            fs_->append(ctx, logIno_, line,
                        static_cast<std::size_t>(n));

            // 4. Remove the spool file.
            fs_->unlink(ctx, spool);
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        VerifyReport rep = report();
        std::string why;
        rep.check(fs_->fsck(ctx, &why), "fsck", why);
        // Every completed delivery is in its mailbox.
        for (unsigned m = 0; m < kMailboxes; m++) {
            if (!rep.check(fs_->fileSize(ctx, mailboxIno_[m]) ==
                               delivered_[m].load(),
                           "mailbox-sizes",
                           "mailbox " + std::to_string(m) +
                               " size mismatch"))
                break;
        }
        return rep;
    }

    void recover(Runtime &rt) override { fs_->mount(rt.ctx(0)); }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        VerifyReport rep = report();
        std::string why;
        rep.check(fs_->journalQuiescent(ctx, &why),
                  "journal-quiescent", why);
        why.clear();
        rep.check(fs_->fsck(ctx, &why), "fsck", why);
        return rep;
    }

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        VerifyReport rep = report();
        std::string why;
        rep.check(fs_->fsck(ctx, &why), "fsck", why);
        // After a crash, a mailbox may have lost the last in-flight
        // delivery but can never exceed what was handed to the FS,
        // and sizes must still be block-map consistent (fsck above).
        for (unsigned m = 0; m < kMailboxes; m++) {
            if (!rep.check(fs_->fileSize(ctx, mailboxIno_[m]) <=
                               delivered_[m].load(),
                           "mailbox-sizes",
                           "mailbox " + std::to_string(m) +
                               " grew beyond deliveries"))
                break;
        }
        return rep;
    }

  protected:
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        fs_->scrub(rt.ctx(0), lines, rep);
    }

  private:
    static constexpr unsigned kMailboxes = 32;

    static std::string
    mailboxPath(unsigned m)
    {
        return "/mail/user" + std::to_string(m);
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // Each workload thread runs a private Exim instance (spool +
    // mailboxes + delivery log) on its own PMFS volume over a disjoint
    // pool slice. A key is a message slot inside one of the mailbox
    // files (256-byte summaries in place of full bodies); a put is a
    // delivery — rewrite the slot, then append a line to the shared
    // per-volume delivery log, preserving Exim's journaled-append
    // profile at KV-op granularity.

    static constexpr std::size_t kWlRecordBytes = 256;

    struct WlVolume
    {
        std::unique_ptr<pmfs::Pmfs> fs;
        pmfs::Ino log = pmfs::kInvalidIno;
        pmfs::Ino boxes[kMailboxes] = {};
    };

    /** SMTP session + process spawning, matching run()'s shape. */
    void
    wlPad(pm::PmContext &ctx, std::uint64_t key)
    {
        std::uint8_t buf[128] = {};
        std::memcpy(buf, &key, 8);
        ctx.vStore(buf, sizeof(buf));
        ctx.vBurst(buf, 1 << 14, 400, 200);
        ctx.compute(12'000'000);
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

    void
    wlLogDelivery(pm::PmContext &ctx, WlVolume &vol, std::uint64_t key,
                  unsigned box)
    {
        char line[64];
        const int n = std::snprintf(
            line, sizeof(line), "delivered msg %llu to mbox %u\n",
            static_cast<unsigned long long>(key), box);
        vol.fs->append(ctx, vol.log, line,
                       static_cast<std::size_t>(n));
    }

  public:
    bool supportsWorkload() const override { return true; }

    void
    workloadSetup(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        wlMap_ = map;
        wlVols_.clear();
        wlVols_.resize(map.threads);
        const Addr region = lineBase(config_.poolBytes / map.threads);
        panic_if(region <= (8u << 20),
                 "exim workload: pool too small for %u volumes",
                 map.threads);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            WlVolume &vol = wlVols_[t];
            vol.fs = std::make_unique<pmfs::Pmfs>(
                ctx, static_cast<Addr>(t) * region, region);
            vol.fs->mkdir(ctx, "/mail");
            vol.log = vol.fs->create(ctx, "/mainlog");
            panic_if(vol.log == pmfs::kInvalidIno,
                     "exim workload setup failed");
            for (unsigned m = 0; m < kMailboxes; m++) {
                vol.boxes[m] = vol.fs->create(ctx, mailboxPath(m));
                panic_if(vol.boxes[m] == pmfs::kInvalidIno,
                         "exim workload mailbox create failed");
            }
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
                    vol.fs->write(ctx, vol.boxes[m], off,
                                  buf.data() + off, n);
                }
            }
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        WlVolume &vol = wlVols_[tid];
        wlPad(ctx, key);
        unsigned box = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), box, slot);
        std::uint8_t rec[kWlRecordBytes];
        vol.fs->read(ctx, vol.boxes[box], slot * kWlRecordBytes, rec,
                     sizeof(rec));
        std::uint64_t stored = 0;
        std::memcpy(&stored, rec, 8);
        return stored == key;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        WlVolume &vol = wlVols_[tid];
        wlPad(ctx, key);
        unsigned box = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), box, slot);
        std::uint8_t rec[kWlRecordBytes];
        wlFillRecord(key, value, rec);
        vol.fs->write(ctx, vol.boxes[box], slot * kWlRecordBytes, rec,
                      sizeof(rec));
        wlLogDelivery(ctx, vol, key, box);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        WlVolume &vol = wlVols_[tid];
        wlPad(ctx, key);
        unsigned box = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), box, slot);
        std::uint8_t rec[kWlRecordBytes];
        vol.fs->read(ctx, vol.boxes[box], slot * kWlRecordBytes, rec,
                     sizeof(rec));
        std::uint64_t stored = 0, value = 0;
        std::memcpy(&stored, rec, 8);
        std::memcpy(&value, rec + 8, 8);
        const bool found = stored == key;
        wlFillRecord(key, (found ? value : 0) + delta, rec);
        vol.fs->write(ctx, vol.boxes[box], slot * kWlRecordBytes, rec,
                      sizeof(rec));
        wlLogDelivery(ctx, vol, key, box);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        WlVolume &vol = wlVols_[tid];
        wlPad(ctx, key);
        std::uint64_t found = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = wlMap_.scanKey(tid, key, j);
            unsigned box = 0;
            std::uint64_t slot = 0;
            wlSlot(wlMap_.localIndex(tid, k), box, slot);
            std::uint8_t rec[kWlRecordBytes];
            vol.fs->read(ctx, vol.boxes[box], slot * kWlRecordBytes,
                         rec, sizeof(rec));
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
        for (unsigned t = 0; t < wlMap_.threads; t++) {
            // A clean run leaves the descriptor COMMITTED (commit is
            // lazy about the FREE transition); mount-time recovery
            // retires it, exactly like the run path's recover().
            wlVols_[t].fs->mount(rt.ctx(t));
            std::string why;
            rep.check(wlVols_[t].fs->journalQuiescent(rt.ctx(t), &why),
                      "journal-quiescent", why);
            why.clear();
            rep.check(wlVols_[t].fs->fsck(rt.ctx(t), &why), "fsck",
                      why);
        }
        return rep;
    }

  private:
    std::unique_ptr<pmfs::Pmfs> fs_;
    pmfs::Ino logIno_ = pmfs::kInvalidIno;
    pmfs::Ino mailboxIno_[kMailboxes] = {};
    std::atomic<std::uint64_t> nextMsg_{0};
    std::atomic<std::uint64_t> delivered_[kMailboxes] = {};
    core::WorkloadKeymap wlMap_;
    std::vector<WlVolume> wlVols_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeEximApp(const core::AppConfig &config)
{
    return std::make_unique<EximApp>(config);
}

} // namespace whisper::apps
