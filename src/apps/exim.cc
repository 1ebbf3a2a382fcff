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
#include <cstdio>

#include "apps/apps.hh"
#include "apps/pmfs_records.hh"
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

class EximApp : public PmfsRecordApp
{
  public:
    explicit EximApp(const AppConfig &config)
        : PmfsRecordApp(config, 256, kMailboxes, pad)
    {
    }

    std::string name() const override { return "exim"; }

    void
    setup(Runtime &rt) override
    {
        volumes_.clear();
        volumes_.push_back(
            formatVolume(rt.ctx(0), 0, config_.poolBytes, false));
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        PmfsVolume &v = volumes_[0];
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
            v.fs->append(ctx, v.files[mbox], msg.data(), bytes);

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

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        return checkRun(rt, true);
    }

  protected:
    /**
     * The spool directory (paper run only), the mailboxes and the
     * delivery log. On a workload thread's volume a key is a 256-byte
     * message slot in a mailbox, and a put is a delivery: rewrite the
     * slot, then log it (recordWritten), keeping Exim's
     * journaled-append profile at KV-op granularity.
     */
    PmfsVolume
    formatVolume(pm::PmContext &ctx, Addr base, std::size_t bytes,
                 bool workload) override
    {
        PmfsVolume v;
        v.fs = std::make_unique<pmfs::Pmfs>(ctx, base, bytes);
        if (!workload)
            v.fs->mkdir(ctx, "/spool");
        v.fs->mkdir(ctx, "/mail");
        v.log = v.fs->create(ctx, "/mainlog");
        panic_if(v.log == pmfs::kInvalidIno, "exim setup failed");
        for (unsigned m = 0; m < kMailboxes; m++) {
            v.files.push_back(v.fs->create(ctx, mailboxPath(m)));
            panic_if(v.files.back() == pmfs::kInvalidIno,
                     "mailbox create failed");
        }
        return v;
    }

    void
    recordWritten(pm::PmContext &ctx, ThreadId tid,
                  std::uint64_t key) override
    {
        char line[64];
        const int n = std::snprintf(
            line, sizeof(line), "delivered msg %llu to mbox %u\n",
            static_cast<unsigned long long>(key), stripeOf(tid, key));
        volumes_[tid].fs->append(ctx, volumes_[tid].log, line,
                                 static_cast<std::size_t>(n));
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
        PmfsVolume &v = volumes_[0];
        VerifyReport rep = report();
        std::string why;
        rep.check(v.fs->fsck(ctx, &why), "fsck", why);
        for (unsigned m = 0; m < kMailboxes; m++) {
            const std::uint64_t size = v.fs->fileSize(ctx, v.files[m]);
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

    std::atomic<std::uint64_t> nextMsg_{0};
    std::atomic<std::uint64_t> delivered_[kMailboxes] = {};
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeEximApp(const core::AppConfig &config)
{
    return std::make_unique<EximApp>(config);
}

} // namespace whisper::apps
