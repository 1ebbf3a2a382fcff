/**
 * @file
 * What the PMFS apps nfs and exim share on top of the PMFS layer
 * (PmfsApp, instance_app.hh): their volume type and the
 * generated-workload record store.
 *
 * A workload thread's keys map to fixed-size records striped over its
 * volume's N extent files: local index l lives in file l % N at slot
 * l / N. Every record read and write is one syscall into the volume,
 * so a KV op keeps the filesystem layer's journaled access shape. A
 * record holds its key, its value, their xor, and splitmix64 filler
 * seeded by the value; a get finds a key when its slot holds that key.
 */

#ifndef WHISPER_APPS_PMFS_RECORDS_HH
#define WHISPER_APPS_PMFS_RECORDS_HH

#include <algorithm>
#include <cstring>
#include <vector>

#include "apps/apps.hh"
#include "apps/instance_app.hh"
#include "common/hash.hh"
#include "pmfs/pmfs.hh"

namespace whisper::apps
{

/** One PMFS volume and the files an app keeps open on it. */
struct PmfsVolume
{
    std::unique_ptr<pmfs::Pmfs> fs;
    /** The record stripes: exim's mailboxes, nfs's per-dir files. */
    std::vector<pmfs::Ino> files;
    /** exim's delivery log. */
    pmfs::Ino log = pmfs::kInvalidIno;
};

class PmfsRecordApp : public PmfsApp<PmfsVolume>
{
  public:
    /** @{ \name Generated-workload surface (each op pads once) */

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        padRequest(ctx, key);
        std::uint8_t rec[kMaxRecordBytes];
        return load(ctx, tid, key, rec) == key;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        padRequest(ctx, key);
        store(ctx, tid, key, value);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        padRequest(ctx, key);
        std::uint8_t rec[kMaxRecordBytes];
        const bool found = load(ctx, tid, key, rec) == key;
        std::uint64_t value = 0;
        if (found)
            std::memcpy(&value, rec + 8, 8);
        store(ctx, tid, key, value + delta);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        padRequest(ctx, key);
        std::uint64_t found = 0;
        std::uint8_t rec[kMaxRecordBytes];
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = wlMap_.scanKey(tid, key, j);
            if (load(ctx, tid, k, rec) == k)
                found++;
        }
        return found;
    }

    /** @} */

  protected:
    /** An app's run() padding over a request buffer at @p base. */
    using Pad = void (*)(pm::PmContext &ctx, const void *base);

    /** Records of @p record_bytes over @p stripes files per volume. */
    PmfsRecordApp(const core::AppConfig &config, std::size_t record_bytes,
                  unsigned stripes, Pad pad)
        : PmfsApp(config, 8u << 20), recordBytes_(record_bytes),
          stripes_(stripes), pad_(pad)
    {
        panic_if(record_bytes > kMaxRecordBytes || record_bytes < 24,
                 "pmfs records: bad record size %zu", record_bytes);
    }

    /** After each record write of @p key (exim logs the delivery). */
    virtual void
    recordWritten(pm::PmContext &ctx, ThreadId tid, std::uint64_t key)
    {
        (void)ctx;
        (void)tid;
        (void)key;
    }

    /** The stripe (file index) holding @p key of thread @p tid. */
    unsigned
    stripeOf(ThreadId tid, std::uint64_t key) const
    {
        return static_cast<unsigned>(wlMap_.localIndex(tid, key) %
                                     stripes_);
    }

    /**
     * Thread @p tid's keys (key k holds k * golden ratio), 128 KiB
     * per syscall: a write journals the block metadata it appends in
     * one transaction, and a whole-file write at large key counts
     * would overflow a journal segment.
     */
    void
    preload(pm::PmContext &ctx, ThreadId tid) final
    {
        constexpr std::uint64_t kPreloadChunkBytes = 128u << 10;
        const PmfsVolume &v = inst_[tid];
        const std::uint64_t keys = wlMap_.perThread();
        std::vector<std::uint8_t> buf;
        for (unsigned f = 0; f < stripes_; f++) {
            const std::uint64_t recs =
                keys / stripes_ + (f < keys % stripes_ ? 1 : 0);
            if (recs == 0)
                continue;
            buf.resize(recs * recordBytes_);
            for (std::uint64_t s = 0; s < recs; s++) {
                const std::uint64_t key =
                    wlMap_.lo(tid) + s * stripes_ + f;
                fill(key, key * 0x9e3779b97f4a7c15ull,
                     buf.data() + s * recordBytes_);
            }
            for (std::uint64_t off = 0; off < buf.size();
                 off += kPreloadChunkBytes) {
                const std::uint64_t n = std::min<std::uint64_t>(
                    kPreloadChunkBytes, buf.size() - off);
                v.fs->write(ctx, v.files[f], off, buf.data() + off, n);
            }
        }
    }

    /**
     * Records carry no check of their own: the layer's journal and
     * fsck check covers a workload shard, and nfs and exim check their
     * paper runs in verify() and verifyRecovered().
     */
    void
    checkStructure(pm::PmContext &ctx, PmfsVolume &v, bool clean,
                   core::VerifyReport &rep) final
    {
        (void)ctx;
        (void)v;
        (void)clean;
        (void)rep;
    }

  private:
    static constexpr std::size_t kMaxRecordBytes = 512;

    /** The app's padding over a 128-byte buffer stamped with @p key. */
    void
    padRequest(pm::PmContext &ctx, std::uint64_t key) const
    {
        std::uint8_t buf[128] = {};
        std::memcpy(buf, &key, 8);
        pad_(ctx, buf);
    }

    /** Record image of (@p key, @p value) into @p out. */
    void
    fill(std::uint64_t key, std::uint64_t value, std::uint8_t *out) const
    {
        std::uint64_t words[kMaxRecordBytes / 8] = {key, value,
                                                    key ^ value};
        std::uint64_t seed = value;
        for (std::size_t i = 3; i < recordBytes_ / 8; i++)
            words[i] = splitmix64(seed);
        std::memcpy(out, words, recordBytes_);
    }

    /** Read @p key's record into @p rec; returns its stored key. */
    std::uint64_t
    load(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
         std::uint8_t *rec)
    {
        const std::uint64_t local = wlMap_.localIndex(tid, key);
        const PmfsVolume &v = inst_[tid];
        v.fs->read(ctx, v.files[local % stripes_],
                   local / stripes_ * recordBytes_, rec, recordBytes_);
        std::uint64_t stored = 0;
        std::memcpy(&stored, rec, 8);
        return stored;
    }

    void
    store(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
          std::uint64_t value)
    {
        std::uint8_t rec[kMaxRecordBytes];
        fill(key, value, rec);
        const std::uint64_t local = wlMap_.localIndex(tid, key);
        const PmfsVolume &v = inst_[tid];
        v.fs->write(ctx, v.files[local % stripes_],
                    local / stripes_ * recordBytes_, rec, recordBytes_);
        recordWritten(ctx, tid, key);
    }

    const std::size_t recordBytes_;
    const unsigned stripes_;
    const Pad pad_;
};

} // namespace whisper::apps

#endif // WHISPER_APPS_PMFS_RECORDS_HH
