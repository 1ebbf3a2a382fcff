/**
 * @file
 * Factories for the fourteen WHISPER applications and the two test
 * fixtures, plus the invariant check the three PMFS applications
 * share. The KV apps of MOD and Halo share PartitionedKvApp
 * (partitioned_kv.hh); nfs and exim share PmfsRecordApp
 * (pmfs_records.hh).
 *
 * Table 1 of the paper maps each application to its access layer and
 * driving workload; the constant app table in register.cc names these
 * factories with the paper's names:
 *
 *   echo, ycsb, tpcc          — native
 *   redis, ctree, hashmap     — Library/NVML
 *   vacation, memcached       — Library/Mnemosyne
 *   nfs, exim, mysql          — FS/PMFS
 *   mod-hashmap, mod-vector   — Library/MOD (post-paper layer)
 *   halo-hashmap              — Hybrid/Halo (post-paper layer)
 *
 * The fixtures resolve by name through core::createApp() but are in
 * no default list (core::registeredApps()):
 *
 *   faulty                    — native; a seeded ordering bug
 *   mod-hashmap-broken        — mod-hashmap with a seeded broken
 *                               commit only lincheck convicts
 */

#ifndef WHISPER_APPS_APPS_HH
#define WHISPER_APPS_APPS_HH

#include <memory>

#include "core/app.hh"
#include "pmfs/pmfs.hh"

namespace whisper::apps
{

std::unique_ptr<core::WhisperApp> makeEchoApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeYcsbApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeTpccApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeRedisApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeCtreeApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeHashmapApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp>
makeVacationApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp>
makeMemcachedApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeNfsApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeEximApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeMysqlApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp>
makeModHashmapApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp>
makeModVectorApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp>
makeHaloHashmapApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp> makeFaultyApp(const core::AppConfig &);
std::unique_ptr<core::WhisperApp>
makeModHashmapBrokenApp(const core::AppConfig &);

/**
 * PMFS recovery invariants of one volume: journal retired
 * ("journal-quiescent") and fsck-clean ("fsck").
 */
inline void
checkPmfs(pm::PmContext &ctx, pmfs::Pmfs &fs, core::VerifyReport &rep)
{
    std::string why;
    rep.check(fs.journalQuiescent(ctx, &why), "journal-quiescent", why);
    why.clear();
    rep.check(fs.fsck(ctx, &why), "fsck", why);
}

} // namespace whisper::apps

#endif // WHISPER_APPS_APPS_HH
