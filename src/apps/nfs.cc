/**
 * @file
 * NFS: a file server exporting a PMFS volume (paper §3.2.3).
 *
 * Runs the filebench *fileserver* profile against the PMFS-like
 * filesystem: a directory tree of files; each loop iteration by each
 * of the 8 client threads performs create+write-whole-file, open+
 * append, read-whole-file, stat, and delete operations, with file
 * sizes drawn around the profile's mean. Everything reaches PM
 * through the filesystem's syscall-style interface — the lowest
 * epoch rate in the suite (Table 1) because each syscall is one
 * journal transaction and most traffic is 4 KB NTI block writes.
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

constexpr unsigned kDirs = 8;

std::string
dirPath(unsigned d)
{
    return "/export/dir" + std::to_string(d);
}

/** One file server: a PMFS volume exporting /export/dirNN. */
struct Instance
{
    std::unique_ptr<pmfs::Pmfs> fs;
    /** Per-directory record extent files (workload volumes only). */
    pmfs::Ino files[kDirs] = {};
};

/**
 * Format a volume over [@p base, @p base + @p bytes) with the export
 * tree, plus one record extent file per directory when @p extents.
 */
Instance
formatVolume(pm::PmContext &ctx, Addr base, std::size_t bytes,
             bool extents)
{
    Instance v;
    v.fs = std::make_unique<pmfs::Pmfs>(ctx, base, bytes);
    v.fs->mkdir(ctx, "/export");
    for (unsigned d = 0; d < kDirs; d++) {
        v.fs->mkdir(ctx, dirPath(d));
        if (!extents)
            continue;
        v.files[d] = v.fs->create(ctx, dirPath(d) + "/data");
        panic_if(v.files[d] == pmfs::kInvalidIno,
                 "nfs workload create failed");
    }
    return v;
}

/** RPC round trip + server-side request handling keep NFS at ~250K
 *  epochs/second (Table 1). */
void
pad(pm::PmContext &ctx, const void *base)
{
    ctx.vStore(base, 64);
    ctx.vBurst(base, 1 << 14, 200, 80);
    ctx.compute(60'000);
}

class NfsApp : public WhisperApp
{
  public:
    explicit NfsApp(const AppConfig &config) : WhisperApp(config) {}

    std::string name() const override { return "nfs"; }
    AccessLayer layer() const override { return AccessLayer::Filesystem; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        inst_.clear();
        inst_.push_back(formatVolume(ctx, 0, config_.poolBytes, false));
        pmfs::Pmfs &fs = *inst_[0].fs;
        // A starting fileset in every export directory.
        Rng rng(config_.seed);
        std::vector<std::uint8_t> buf(kMeanFileBytes);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng());
        for (unsigned d = 0; d < kDirs; d++) {
            for (unsigned f = 0; f < kInitialFilesPerDir; f++) {
                const pmfs::Ino ino = fs.create(ctx, filePath(d, f));
                panic_if(ino == pmfs::kInvalidIno,
                         "nfs setup create failed");
                fs.write(ctx, ino, 0, buf.data(), buf.size());
            }
        }
        nextFile_.store(kInitialFilesPerDir);
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        pmfs::Pmfs &fs = *inst_[0].fs;
        Rng rng(config_.seed * 101 + tid);
        std::vector<std::uint8_t> buf(4 * kMeanFileBytes);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng());

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const unsigned d = static_cast<unsigned>(rng.next(kDirs));
            const double pick = rng.nextDouble();
            pad(ctx, buf.data());

            if (pick < 0.25) {
                // createfile + writewholefile + close
                const std::uint64_t id = nextFile_.fetch_add(1);
                const pmfs::Ino ino = fs.create(
                    ctx, filePath(d, static_cast<unsigned>(id)));
                if (ino != pmfs::kInvalidIno) {
                    const std::size_t n = fileBytes(rng);
                    fs.write(ctx, ino, 0, buf.data(), n);
                }
            } else if (pick < 0.45) {
                // open + appendfile
                const pmfs::Ino ino = pickFile(ctx, d, rng);
                if (ino != pmfs::kInvalidIno)
                    fs.append(ctx, ino, buf.data(), kAppendBytes);
            } else if (pick < 0.80) {
                // open + readwholefile
                const pmfs::Ino ino = pickFile(ctx, d, rng);
                if (ino != pmfs::kInvalidIno) {
                    std::vector<std::uint8_t> rbuf(
                        fs.fileSize(ctx, ino));
                    if (!rbuf.empty()) {
                        fs.read(ctx, ino, 0, rbuf.data(), rbuf.size());
                        ctx.vStore(rbuf.data(),
                                   std::min<std::size_t>(
                                       rbuf.size(), 256));
                    }
                }
            } else if (pick < 0.92) {
                // statfile
                const pmfs::Ino ino = pickFile(ctx, d, rng);
                if (ino != pmfs::kInvalidIno)
                    fs.fileSize(ctx, ino);
            } else {
                // deletefile
                const auto names = fs.readdir(ctx, dirPath(d));
                if (!names.empty()) {
                    const auto &name =
                        names[rng.next(names.size())];
                    fs.unlink(ctx, dirPath(d) + "/" + name);
                }
            }
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        std::string why;
        rep.check(inst_[0].fs->fsck(rt.ctx(0), &why), "fsck", why);
        return rep;
    }

    void recover(Runtime &rt) override { inst_[0].fs->mount(rt.ctx(0)); }

    VerifyReport verifyRecovered(Runtime &rt) override { return verify(rt); }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        VerifyReport rep = report();
        checkPmfs(rt.ctx(0), *inst_[0].fs, rep);
        return rep;
    }

  protected:
    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        inst_[0].fs->scrub(rt.ctx(0), lines, rep);
    }

  private:
    static constexpr unsigned kInitialFilesPerDir = 8;
    static constexpr std::size_t kMeanFileBytes = 16 << 10;
    static constexpr std::size_t kAppendBytes = 8 << 10;

    static std::string
    filePath(unsigned d, unsigned f)
    {
        return dirPath(d) + "/f" + std::to_string(f);
    }

    std::size_t
    fileBytes(Rng &rng) const
    {
        // Rough gamma-ish spread around the 16 KB mean.
        return (kMeanFileBytes / 2) + rng.next(kMeanFileBytes);
    }

    pmfs::Ino
    pickFile(pm::PmContext &ctx, unsigned d, Rng &rng)
    {
        pmfs::Pmfs &fs = *inst_[0].fs;
        const auto names = fs.readdir(ctx, dirPath(d));
        if (names.empty())
            return pmfs::kInvalidIno;
        const auto &name = names[rng.next(names.size())];
        return fs.lookup(ctx, dirPath(d) + "/" + name);
    }

    // ---- Unified workload driver surface ------------------------------
    //
    // Each workload thread exports its own PMFS volume over a disjoint
    // pool slice (one server instance per client, as a scaled-out
    // filer would shard exports). Keys map to fixed-size 512-byte
    // records striped across one extent file per directory; every
    // write is a journaled syscall into the volume, preserving the
    // filesystem layer's access shape at KV-op granularity.

    static constexpr std::size_t kWlRecordBytes = 512;

    /** run()'s per-request padding over a key-stamped buffer. */
    static void
    wlPad(pm::PmContext &ctx, std::uint64_t key)
    {
        std::uint8_t buf[64] = {};
        std::memcpy(buf, &key, 8);
        pad(ctx, buf);
    }

    /** Deterministic record image for (key, value). */
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

    /** localIndex -> (extent file, record slot) striping. */
    static void
    wlSlot(std::uint64_t local_index, unsigned &file,
           std::uint64_t &slot)
    {
        file = static_cast<unsigned>(local_index % kDirs);
        slot = local_index / kDirs;
    }

  public:
    void
    workloadSetup(Runtime &rt, const core::WorkloadKeymap &map) override
    {
        wlMap_ = map;
        inst_.clear();
        const PoolSlices slices(config_.poolBytes, map.threads, 8u << 20,
                                "nfs");
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            inst_.push_back(
                formatVolume(ctx, slices.base(t), slices.bytes, true));
            Instance &v = inst_[t];
            // Preload each extent file in bounded syscalls: every
            // write is one journal transaction, and each appended
            // block journals allocator/block-map metadata, so a
            // whole-file write at large key counts would overflow a
            // journal segment. 128 KiB per call stays well inside it.
            constexpr std::uint64_t kPreloadChunkBytes = 128u << 10;
            std::vector<std::uint8_t> buf;
            for (unsigned d = 0; d < kDirs; d++) {
                const std::uint64_t recs =
                    map.perThread() / kDirs +
                    (d < map.perThread() % kDirs ? 1 : 0);
                if (recs == 0)
                    continue;
                buf.resize(recs * kWlRecordBytes);
                for (std::uint64_t s = 0; s < recs; s++) {
                    const std::uint64_t key =
                        map.lo(t) + s * kDirs + d;
                    wlFillRecord(key, key * 0x9e3779b97f4a7c15ull,
                                 buf.data() + s * kWlRecordBytes);
                }
                for (std::uint64_t off = 0; off < buf.size();
                     off += kPreloadChunkBytes) {
                    const std::uint64_t n = std::min<std::uint64_t>(
                        kPreloadChunkBytes, buf.size() - off);
                    v.fs->write(ctx, v.files[d], off, buf.data() + off,
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
        unsigned file = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), file, slot);
        std::uint8_t rec[kWlRecordBytes];
        v.fs->read(ctx, v.files[file], slot * kWlRecordBytes, rec,
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
        unsigned file = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), file, slot);
        std::uint8_t rec[kWlRecordBytes];
        wlFillRecord(key, value, rec);
        v.fs->write(ctx, v.files[file], slot * kWlRecordBytes, rec,
                    sizeof(rec));
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        Instance &v = inst_[tid];
        wlPad(ctx, key);
        unsigned file = 0;
        std::uint64_t slot = 0;
        wlSlot(wlMap_.localIndex(tid, key), file, slot);
        std::uint8_t rec[kWlRecordBytes];
        v.fs->read(ctx, v.files[file], slot * kWlRecordBytes, rec,
                   sizeof(rec));
        std::uint64_t stored = 0, value = 0;
        std::memcpy(&stored, rec, 8);
        std::memcpy(&value, rec + 8, 8);
        const bool found = stored == key;
        wlFillRecord(key, (found ? value : 0) + delta, rec);
        v.fs->write(ctx, v.files[file], slot * kWlRecordBytes, rec,
                    sizeof(rec));
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
            unsigned file = 0;
            std::uint64_t slot = 0;
            wlSlot(wlMap_.localIndex(tid, k), file, slot);
            std::uint8_t rec[kWlRecordBytes];
            v.fs->read(ctx, v.files[file], slot * kWlRecordBytes, rec,
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
     * The paper run's one export over the whole pool (setup()), or
     * one export per workload thread (workloadSetup()).
     */
    std::vector<Instance> inst_;
    std::atomic<std::uint64_t> nextFile_{0};
    core::WorkloadKeymap wlMap_;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeNfsApp(const core::AppConfig &config)
{
    return std::make_unique<NfsApp>(config);
}

} // namespace whisper::apps
