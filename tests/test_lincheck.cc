/**
 * @file
 * Durable-linearizability checker tests: golden accept/reject
 * histories per op kind, pending-subset crash semantics, real-time
 * order, budget degradation instead of hangs, history-file
 * round-trips, the recorder's fence classification, the fuzz and
 * workload-driver integrations (with the pinned pre-lincheck golden
 * digests guarding the lincheck-off path and pinned sweep digests
 * guarding the lincheck-on path), and the end-to-end proof
 * that a deliberately broken commit path — invisible to every
 * structural invariant — is caught by the checker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "fuzz/crash_fuzz.hh"
#include "lincheck/checker.hh"
#include "lincheck/history_io.hh"
#include "lincheck/recorder.hh"
#include "workload/workload.hh"

namespace whisper
{
namespace
{

using lincheck::CheckOptions;
using lincheck::CheckResult;
using lincheck::History;
using lincheck::KeyState;
using lincheck::Op;
using lincheck::OpKind;

/** A fully-specified op record (responseTs == 0 means pending). */
Op
op(ThreadId thread, OpKind kind, std::uint64_t key, std::uint64_t arg,
   std::uint64_t invoke_ts, std::uint64_t response_ts,
   bool found = false, std::uint64_t read_value = 0,
   bool durable = false)
{
    Op o;
    o.thread = thread;
    o.kind = kind;
    o.key = key;
    o.arg = arg;
    o.completed = response_ts != 0;
    o.found = found;
    o.readValue = read_value;
    o.invokeTs = invoke_ts;
    o.responseTs = response_ts;
    o.durable = durable;
    return o;
}

// ------------------------------------------------- checker goldens

TEST(Lincheck, AcceptsSequentialHistoryEveryOpKind)
{
    History h;
    h.crashed = false;
    h.threads = 1;
    h.initial[1] = KeyState{true, 5};
    h.ops = {
        op(0, OpKind::Get, 1, 0, 1, 2, true, 5),
        op(0, OpKind::Put, 1, 7, 3, 4),
        op(0, OpKind::Rmw, 1, 3, 5, 6, true),   // 7 + 3 = 10
        op(0, OpKind::Get, 1, 0, 7, 8, true, 10),
        op(0, OpKind::Remove, 1, 0, 9, 10, true),
        op(0, OpKind::Get, 1, 0, 11, 12, false),
    };
    // Key 1 ends absent; untouched key 2 was and stays present.
    h.initial[2] = KeyState{true, 42};
    h.recovered[2] = KeyState{true, 42};
    const CheckResult res = lincheck::check(h);
    EXPECT_TRUE(res.ok) << res.brief();
    EXPECT_FALSE(res.budgetExhausted);
    ASSERT_EQ(res.keys.size(), 2u);
    EXPECT_TRUE(res.keys[0].ok);
    EXPECT_TRUE(res.keys[1].ok);
}

TEST(Lincheck, RejectsReadOfNeverWrittenValue)
{
    History h;
    h.crashed = false;
    h.threads = 1;
    h.ops = {
        op(0, OpKind::Put, 9, 100, 1, 2),
        op(0, OpKind::Get, 9, 0, 3, 4, true, 999),
    };
    h.recovered[9] = KeyState{true, 100};
    const CheckResult res = lincheck::check(h);
    EXPECT_FALSE(res.ok);
    ASSERT_EQ(res.keys.size(), 1u);
    EXPECT_FALSE(res.keys[0].ok);
    EXPECT_NE(res.keys[0].why.find("no witness"), std::string::npos);
}

TEST(Lincheck, TombstoneMustStayRemoved)
{
    History h;
    h.crashed = false;
    h.threads = 1;
    h.initial[4] = KeyState{true, 11};
    h.ops = {op(0, OpKind::Remove, 4, 0, 1, 2, true)};
    h.recovered[4] = KeyState{true, 11}; // resurrected: illegal
    EXPECT_FALSE(lincheck::check(h).ok);

    h.recovered.erase(4); // absent: the remove's only legal outcome
    EXPECT_TRUE(lincheck::check(h).ok);
}

TEST(Lincheck, PendingOpMayCommitOrVanishAtCrash)
{
    History base;
    base.crashed = true;
    base.threads = 1;
    base.ops = {op(0, OpKind::Put, 7, 9, 1, /*response_ts=*/0)};

    History dropped = base; // the pending put never happened
    EXPECT_TRUE(lincheck::check(dropped).ok);

    History committed = base; // ... or its effect reached PM
    committed.recovered[7] = KeyState{true, 9};
    EXPECT_TRUE(lincheck::check(committed).ok);

    History corrupt = base; // but a third value is a violation
    corrupt.recovered[7] = KeyState{true, 3};
    EXPECT_FALSE(lincheck::check(corrupt).ok);
}

TEST(Lincheck, RealTimeOrderIsEnforced)
{
    // put(1) ; put(2) ; get reads 1 — the get follows both puts in
    // real time, so no linearization explains the stale read.
    History h;
    h.crashed = false;
    h.threads = 2;
    h.ops = {
        op(0, OpKind::Put, 5, 1, 1, 2),
        op(1, OpKind::Put, 5, 2, 3, 4),
        op(0, OpKind::Get, 5, 0, 5, 6, true, 1),
    };
    h.recovered[5] = KeyState{true, 2};
    EXPECT_FALSE(lincheck::check(h).ok);

    // Overlap the second put with the get and the stale read becomes
    // legal: the get may linearize first.
    h.ops[1].invokeTs = 3;
    h.ops[1].responseTs = 7;
    h.ops[2].invokeTs = 4;
    h.ops[2].responseTs = 6;
    EXPECT_TRUE(lincheck::check(h).ok);
}

TEST(Lincheck, DurableOpMustSurviveTheCrash)
{
    History h;
    h.crashed = true;
    h.threads = 1;
    h.ops = {op(0, OpKind::Put, 3, 7, 1, 2, false, 0,
                /*durable=*/true)};
    // Durable (fence-covered) put lost: violation.
    EXPECT_FALSE(lincheck::check(h).ok);

    // The same put without fence coverage may be cut away.
    h.ops[0].durable = false;
    EXPECT_TRUE(lincheck::check(h).ok);
}

TEST(Lincheck, BudgetExhaustionDegradesInsteadOfHanging)
{
    // Overlapping completed ops plus pending ops force the DFS (no
    // sequential fast path); a one-node budget exhausts immediately.
    History h;
    h.crashed = true;
    h.threads = 4;
    for (unsigned t = 0; t < 4; t++) {
        h.ops.push_back(op(t, OpKind::Put, 1, t + 1, 1, 10 + t));
        h.ops.push_back(op(t, OpKind::Put, 1, 10 + t, 20, 0));
    }
    h.recovered[1] = KeyState{true, 4};
    CheckOptions opts;
    opts.nodeBudget = 1;
    const CheckResult res = lincheck::check(h, opts);
    EXPECT_TRUE(res.budgetExhausted);
    EXPECT_TRUE(res.ok) << "budget exhaustion is not a violation";
    ASSERT_EQ(res.keys.size(), 1u);
    EXPECT_TRUE(res.keys[0].budgetExhausted);
    EXPECT_EQ(res.keys[0].why, "lincheck-budget");
}

TEST(Lincheck, HistoryFileRoundTrips)
{
    History h;
    h.crashed = true;
    h.threads = 2;
    h.initial[1] = KeyState{true, 5};
    h.recovered[1] = KeyState{true, 7};
    h.ops = {
        op(0, OpKind::Put, 1, 7, 1, 2, false, 0, true),
        op(1, OpKind::Rmw, 1, 3, 3, 0), // pending
        op(0, OpKind::Get, 1, 0, 4, 5, true, 7),
        op(1, OpKind::Remove, 2, 0, 6, 7, false),
    };
    const std::string path =
        testing::TempDir() + "lincheck-roundtrip.hist";
    ASSERT_TRUE(lincheck::writeHistoryFile(path, h));

    History back;
    std::string error;
    ASSERT_TRUE(lincheck::readHistoryFile(path, back, error)) << error;
    EXPECT_EQ(back.crashed, h.crashed);
    EXPECT_EQ(back.threads, h.threads);
    EXPECT_EQ(back.initial.size(), h.initial.size());
    EXPECT_EQ(back.recovered.size(), h.recovered.size());
    ASSERT_EQ(back.ops.size(), h.ops.size());
    for (std::size_t i = 0; i < h.ops.size(); i++) {
        EXPECT_EQ(back.ops[i].kind, h.ops[i].kind) << i;
        EXPECT_EQ(back.ops[i].key, h.ops[i].key) << i;
        EXPECT_EQ(back.ops[i].arg, h.ops[i].arg) << i;
        EXPECT_EQ(back.ops[i].completed, h.ops[i].completed) << i;
        EXPECT_EQ(back.ops[i].durable, h.ops[i].durable) << i;
        EXPECT_EQ(back.ops[i].invokeTs, h.ops[i].invokeTs) << i;
        EXPECT_EQ(back.ops[i].responseTs, h.ops[i].responseTs) << i;
    }
    // Verdicts agree across the round trip.
    EXPECT_EQ(lincheck::check(back).digest(),
              lincheck::check(h).digest());
    std::remove(path.c_str());

    History missing;
    EXPECT_FALSE(lincheck::readHistoryFile(
        testing::TempDir() + "no-such-file.hist", missing, error));
    EXPECT_FALSE(error.empty());
}

TEST(Lincheck, MinimizerKeepsTheViolation)
{
    History h;
    h.crashed = false;
    h.threads = 1;
    // Violating key 1 plus a pile of irrelevant traffic on key 2.
    h.ops = {op(0, OpKind::Put, 1, 5, 1, 2),
             op(0, OpKind::Get, 1, 0, 3, 4, true, 999)};
    for (std::uint64_t i = 0; i < 10; i++) {
        h.ops.push_back(
            op(0, OpKind::Put, 2, i, 10 + 2 * i, 11 + 2 * i));
    }
    h.recovered[1] = KeyState{true, 5};
    h.recovered[2] = KeyState{true, 9};
    ASSERT_FALSE(lincheck::check(h).ok);

    const History m = lincheck::minimizeViolation(h);
    EXPECT_FALSE(lincheck::check(m).ok)
        << "minimized history must still be rejected";
    EXPECT_LT(m.ops.size(), h.ops.size());
    for (const Op &o : m.ops)
        EXPECT_EQ(o.key, 1u) << "passing keys must be dropped";

    // A passing history comes back unchanged.
    History fine;
    fine.crashed = false;
    fine.threads = 1;
    fine.ops = {op(0, OpKind::Put, 1, 5, 1, 2)};
    fine.recovered[1] = KeyState{true, 5};
    EXPECT_EQ(lincheck::minimizeViolation(fine).ops.size(), 1u);
}

TEST(Lincheck, RecorderClassifiesDurability)
{
    lincheck::HistoryRecorder rec;
    rec.enable(2);
    rec.noteInitial(1, true, 5);

    // Thread 0: put, then an admitted durability fence -> MUST.
    std::size_t p0 = rec.invoke(0, OpKind::Put, 1, 7);
    rec.response(0, p0, false, 0);
    rec.onFence(0, trace::FenceKind::Durability, /*admitted=*/true);

    // Thread 0: a get after the fence is never durable.
    std::size_t g0 = rec.invoke(0, OpKind::Get, 1, 0);
    rec.response(0, g0, true, 7);
    rec.onFence(0, trace::FenceKind::Durability, true);

    // Thread 1: a put with only an ordering fence (and a dropped
    // durability fence) stays droppable.
    std::size_t p1 = rec.invoke(1, OpKind::Put, 2, 9);
    rec.response(1, p1, false, 0);
    rec.onFence(1, trace::FenceKind::Ordering, true);
    rec.onFence(1, trace::FenceKind::Durability, /*admitted=*/false);

    rec.setCrashed(true);
    rec.noteRecovered(1, true, 7);
    const History h = rec.finish();
    EXPECT_TRUE(h.crashed);
    EXPECT_EQ(h.threads, 2u);
    ASSERT_EQ(h.ops.size(), 3u);
    // finish() folds per-thread logs in tid order.
    EXPECT_TRUE(h.ops[0].durable);
    EXPECT_FALSE(h.ops[1].durable) << "gets are never durable";
    EXPECT_FALSE(h.ops[2].durable) << "no admitted dfence on thread 1";
    EXPECT_TRUE(lincheck::check(h).ok);
}

// -------------------------------------- fuzz integration + goldens

/**
 * Satellite regression guard: with FuzzConfig::lincheck off, sweep
 * digests must stay bit-identical to the pre-lincheck goldens (jobs
 * count never matters). These constants were produced by the commit
 * that predates src/lincheck/ and must never drift.
 */
TEST(LincheckFuzz, GoldenDigestsUnchangedWithLincheckOff)
{
    fuzz::SweepOptions options;
    options.cases = 24;
    options.jobs = 4;
    options.apps = {"mod-hashmap", "halo-hashmap"};
    options.config.opsPerThread = 10;
    options.shrinkViolations = false;
    const auto reports = fuzz::sweep(options);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].digest, 0xc4b27b9787761264ull);
    EXPECT_EQ(reports[1].digest, 0x5dbf9d21af58096full);
    for (const auto &rep : reports) {
        EXPECT_EQ(rep.violations, 0u);
        EXPECT_EQ(rep.lincheckViolations, 0u);
    }
}

TEST(LincheckFuzz, GoldenDigestsUnchangedMultiThreadFaults)
{
    fuzz::SweepOptions options;
    options.cases = 40;
    options.jobs = 4;
    options.apps = {"mod-hashmap", "mod-vector", "halo-hashmap"};
    options.config.opsPerThread = 12;
    options.config.threads = 3;
    options.config.faults = true;
    options.shrinkViolations = false;
    const auto reports = fuzz::sweep(options);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].digest, 0x49b3fc2782f6583dull);
    EXPECT_EQ(reports[1].digest, 0x7e83f87f1911165cull);
    EXPECT_EQ(reports[2].digest, 0xbb641204cd3cb62full);
    for (const auto &rep : reports)
        EXPECT_EQ(rep.violations, 0u);
}

TEST(LincheckFuzz, GoldenDigestsWithLincheckOn)
{
    fuzz::SweepOptions options;
    options.cases = 24;
    options.jobs = 4;
    options.apps = {"mod-hashmap", "mod-vector", "halo-hashmap"};
    options.config.opsPerThread = 10;
    options.config.lincheck = true;
    options.shrinkViolations = false;
    const auto reports = fuzz::sweep(options);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].digest, 0x0a27557e7ff1eb8bull);
    EXPECT_EQ(reports[1].digest, 0x8d56520522c82a61ull);
    EXPECT_EQ(reports[2].digest, 0x111c31998c6c312dull);
    for (const auto &rep : reports) {
        EXPECT_EQ(rep.violations, 0u) << rep.app;
        EXPECT_EQ(rep.lincheckViolations, 0u) << rep.app;
    }
}

TEST(LincheckFuzz, GoldenDigestsWithLincheckOnMultiThreadFaults)
{
    fuzz::SweepOptions options;
    options.cases = 40;
    options.jobs = 4;
    options.apps = {"mod-hashmap", "mod-vector", "halo-hashmap"};
    options.config.opsPerThread = 12;
    options.config.threads = 3;
    options.config.faults = true;
    options.config.lincheck = true;
    options.shrinkViolations = false;
    const auto reports = fuzz::sweep(options);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].digest, 0x72bab5f7996a6ad2ull);
    EXPECT_EQ(reports[1].digest, 0xf09cba7697d57418ull);
    EXPECT_EQ(reports[2].digest, 0xae2b24a0b24ade08ull);
    for (const auto &rep : reports)
        EXPECT_EQ(rep.violations, 0u) << rep.app;
}

TEST(LincheckFuzz, CaseReplayIsBitIdentical)
{
    fuzz::FuzzConfig config;
    config.opsPerThread = 10;
    config.threads = 3;
    config.lincheck = true;
    const std::uint64_t total =
        fuzz::profilePmOps("mod-vector", config);
    ASSERT_GT(total, 0u);
    const fuzz::FuzzCase c =
        fuzz::deriveCase("mod-vector", 3, total, config);
    const fuzz::CaseOutcome first = fuzz::runCase(c, config);
    const fuzz::CaseOutcome second = fuzz::runCase(c, config);
    EXPECT_TRUE(first.lincheckRan);
    EXPECT_GT(first.lincheckKeys, 0u);
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.lincheckOk, second.lincheckOk);
    EXPECT_EQ(first.lincheckKeys, second.lincheckKeys);
    EXPECT_EQ(first.imageHash, second.imageHash);
}

TEST(LincheckFuzz, SweepCleanAndDeterministic)
{
    fuzz::SweepOptions options;
    options.cases = 10;
    options.jobs = 4;
    options.apps = {"mod-hashmap", "halo-hashmap"};
    options.config.opsPerThread = 10;
    options.config.threads = 3;
    options.config.lincheck = true;
    options.shrinkViolations = false;
    const auto first = fuzz::sweep(options);
    const auto second = fuzz::sweep(options);
    ASSERT_EQ(first.size(), 2u);
    for (std::size_t i = 0; i < first.size(); i++) {
        EXPECT_EQ(first[i].violations, 0u) << first[i].app;
        EXPECT_EQ(first[i].lincheckViolations, 0u) << first[i].app;
        EXPECT_EQ(first[i].lincheckBudget, 0u) << first[i].app;
        EXPECT_EQ(first[i].digest, second[i].digest) << first[i].app;
    }
}

/**
 * A private TMPDIR for one test: the lincheck dumps it provokes
 * (lincheckDumpPath(), named by app and case) land in a fresh
 * directory, removed with its contents at scope exit, so tests that
 * dump the same cases can run as parallel processes.
 */
class ScopedTmpdir
{
  public:
    ScopedTmpdir()
    {
        const char *tmp = std::getenv("TMPDIR");
        if (tmp)
            saved_ = tmp;
        std::string path = (tmp && *tmp ? saved_ : std::string("/tmp")) +
                           "/whisper-lincheck-test-XXXXXX";
        if (!mkdtemp(path.data()))
            ADD_FAILURE() << "mkdtemp failed for " << path;
        dir_ = path;
        setenv("TMPDIR", dir_.c_str(), 1);
    }

    ~ScopedTmpdir()
    {
        if (saved_.empty())
            unsetenv("TMPDIR");
        else
            setenv("TMPDIR", saved_.c_str(), 1);
        std::filesystem::remove_all(dir_);
    }

  private:
    std::string saved_;
    std::string dir_;
};

/**
 * The acceptance-criterion test: a commit path that durably publishes
 * a checksummed sentinel and patches the real payload in without a
 * flush passes every structural invariant — and only the
 * durable-linearizability checker convicts it.
 */
TEST(LincheckFuzz, CatchesBrokenCommitStructuralChecksMiss)
{
    const ScopedTmpdir tmpdir;
    fuzz::FuzzConfig config;
    config.opsPerThread = 12;
    config.lincheck = true;
    const std::uint64_t total =
        fuzz::profilePmOps("mod-hashmap-broken", config);
    ASSERT_GT(total, 0u);

    bool caught = false;
    for (std::uint64_t id = 0; id < 64 && !caught; id++) {
        const fuzz::FuzzCase c =
            fuzz::deriveCase("mod-hashmap-broken", id, total, config);
        const fuzz::CaseOutcome out = fuzz::runCase(c, config);
        ASSERT_TRUE(out.lincheckRan);
        if (out.lincheckOk || out.degraded)
            continue;
        caught = true;
        EXPECT_GT(out.lincheckViolations, 0u);
        EXPECT_FALSE(out.ok);
        EXPECT_NE(out.why.find("lincheck"), std::string::npos)
            << "only the lincheck invariant may fire: " << out.why;

        // The dumped history replays through the checker standalone.
        ASSERT_FALSE(out.lincheckDump.empty());
        History dumped;
        std::string error;
        ASSERT_TRUE(lincheck::readHistoryFile(out.lincheckDump,
                                              dumped, error))
            << error;
        EXPECT_FALSE(lincheck::check(dumped).ok);

        // The same case through the structural-only pipeline (run()
        // workload, no lincheck) accepts the broken commit: that is
        // precisely the blind spot this PR closes.
        fuzz::FuzzConfig plain = config;
        plain.lincheck = false;
        const std::uint64_t plain_total =
            fuzz::profilePmOps("mod-hashmap-broken", plain);
        const fuzz::FuzzCase pc = fuzz::deriveCase(
            "mod-hashmap-broken", c.caseId, plain_total, plain);
        const fuzz::CaseOutcome plain_out =
            fuzz::runCase(pc, plain);
        EXPECT_TRUE(plain_out.ok)
            << "structural invariants were supposed to accept the "
           "broken commit, but: " << plain_out.why;
    }
    EXPECT_TRUE(caught)
        << "no case in [0, 64) surfaced the broken commit";
}

/**
 * The `lincheck: ` notice lines of a sweep's stderr, each with its
 * history path; the suppression note has none.
 */
struct DumpNotice
{
    std::string line; //!< the notice with the path's unique part masked
    std::string path; //!< the history file, "" for the suppression note
};

std::vector<DumpNotice>
dumpNotices(const std::string &err)
{
    std::vector<DumpNotice> out;
    std::size_t pos = 0;
    while ((pos = err.find("lincheck: ", pos)) != std::string::npos) {
        const std::size_t eol = err.find('\n', pos);
        DumpNotice n{err.substr(pos, eol - pos), ""};
        pos = eol;
        const std::size_t at = n.line.find("(history: ");
        if (at != std::string::npos) {
            n.path = n.line.substr(at + 10, n.line.size() - at - 11);
            // .../whisper-lincheck-<app>-<case>-XXXXXX.hist)
            n.line.replace(n.line.size() - 12, 6, "XXXXXX");
        }
        out.push_back(n);
    }
    return out;
}

/**
 * Violation notices come from the sweep itself, throttled per sweep:
 * a second sweep in the same process prints the same notices, in case
 * order, instead of finding a shared throttle already spent.
 */
TEST(LincheckFuzz, DumpNoticesThrottledPerSweep)
{
    const ScopedTmpdir tmpdir;
    fuzz::SweepOptions options;
    options.cases = 32;
    options.jobs = 2;
    options.apps = {"mod-hashmap-broken"};
    options.config.opsPerThread = 12;
    options.config.lincheck = true;
    options.shrinkViolations = false;

    std::vector<std::string> notices[2];
    std::uint64_t violations = 0;
    for (auto &lines : notices) {
        testing::internal::CaptureStderr();
        const std::vector<fuzz::AppSweepReport> reports =
            fuzz::sweep(options);
        const std::string err = testing::internal::GetCapturedStderr();
        ASSERT_EQ(reports.size(), 1u);
        violations = reports[0].violations;
        for (const DumpNotice &n : dumpNotices(err))
            lines.push_back(n.line);
    }
    ASSERT_GT(violations, 0u) << "the broken commit went unnoticed";
    EXPECT_EQ(notices[0], notices[1]);
    // One notice per violating case up to the cap, then one note.
    EXPECT_EQ(notices[0].size(), std::min<std::uint64_t>(violations, 5));
    EXPECT_NE(notices[0][0].find("lincheck: mod-hashmap-broken case "),
              std::string::npos)
        << notices[0][0];
}

/**
 * Two sweeps of the same cases in one process dump to distinct files:
 * every warned history exists, holds its case's whole history (the
 * bytes a fresh run of that case dumps) and still fails the checker.
 */
TEST(LincheckFuzz, ConcurrentSweepsDumpDistinctHistories)
{
    const ScopedTmpdir tmpdir;
    fuzz::SweepOptions options;
    options.cases = 32;
    options.jobs = 2;
    options.apps = {"mod-hashmap-broken"};
    options.config.opsPerThread = 12;
    options.config.lincheck = true;
    options.shrinkViolations = false;

    testing::internal::CaptureStderr();
    std::vector<fuzz::AppSweepReport> first;
    std::thread other([&] { first = fuzz::sweep(options); });
    const std::vector<fuzz::AppSweepReport> second =
        fuzz::sweep(options);
    other.join();
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    ASSERT_GT(first[0].lincheckViolations, 0u);

    const auto slurp = [](const std::string &path) {
        std::string bytes;
        if (FILE *f = std::fopen(path.c_str(), "rb")) {
            char buf[4096];
            for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f));)
                bytes.append(buf, n);
            std::fclose(f);
        }
        return bytes;
    };
    const std::string app = "mod-hashmap-broken";
    const std::uint64_t total = fuzz::profilePmOps(app, options.config);
    std::vector<DumpNotice> notices = dumpNotices(err);
    std::erase_if(notices,
                  [](const DumpNotice &n) { return n.path.empty(); });
    // Each sweep warns up to four paths.
    EXPECT_EQ(notices.size(),
              2 * std::min<std::uint64_t>(first[0].lincheckViolations, 4));
    std::set<std::string> paths;
    for (const DumpNotice &n : notices) {
        EXPECT_TRUE(paths.insert(n.path).second) << "warned twice: "
                                                 << n.path;
        ASSERT_TRUE(std::filesystem::exists(n.path)) << n.line;
        const std::size_t at = n.line.find(" case ") + 6;
        const std::uint64_t id = std::stoull(n.line.substr(at));
        const fuzz::CaseOutcome again = fuzz::runCase(
            fuzz::deriveCase(app, id, total, options.config),
            options.config);
        ASSERT_FALSE(again.lincheckDump.empty()) << n.line;
        EXPECT_EQ(slurp(n.path), slurp(again.lincheckDump)) << n.line;
        std::remove(again.lincheckDump.c_str());
        History dumped;
        std::string error;
        ASSERT_TRUE(lincheck::readHistoryFile(n.path, dumped, error))
            << error;
        EXPECT_FALSE(lincheck::check(dumped).ok) << n.path;
    }
}

/**
 * The broken commit belongs to an app name, so its replay line carries
 * it: the case the line names fails again, with the same invariant.
 */
TEST(LincheckFuzz, BrokenFixtureReplayNamesFixture)
{
    const ScopedTmpdir tmpdir;
    fuzz::FuzzConfig config;
    config.opsPerThread = 12;
    config.lincheck = true;
    const std::string app = "mod-hashmap-broken";
    const std::uint64_t total = fuzz::profilePmOps(app, config);

    bool caught = false;
    for (std::uint64_t id = 0; id < 32 && !caught; id++) {
        const fuzz::FuzzCase c =
            fuzz::deriveCase(app, id, total, config);
        const fuzz::CaseOutcome out = fuzz::runCase(c, config);
        if (out.ok || out.lincheckOk)
            continue;
        caught = true;
        const std::string cmd =
            fuzz::replayCommand(c, out.survivors, config);
        EXPECT_NE(cmd.find("--replay mod-hashmap-broken:"),
                  std::string::npos)
            << cmd;
        EXPECT_NE(cmd.find("--lincheck"), std::string::npos) << cmd;

        const fuzz::CaseOutcome again =
            fuzz::runCase(c, config, &out.survivors);
        EXPECT_FALSE(again.ok);
        EXPECT_EQ(again.why, out.why);
    }
    EXPECT_TRUE(caught) << "no case in [0, 32) surfaced the broken commit";
}

/**
 * Two sweeps in one process cannot interfere: a plain mod-hashmap
 * lincheck sweep racing a broken-commit sweep on another thread stays
 * clean and keeps the digest it has when it runs alone.
 */
TEST(LincheckFuzz, BrokenSweepLeavesConcurrentPlainSweepAlone)
{
    const ScopedTmpdir tmpdir;
    fuzz::SweepOptions plain;
    plain.cases = 16;
    plain.jobs = 2;
    plain.apps = {"mod-hashmap"};
    plain.config.opsPerThread = 12;
    plain.config.lincheck = true;
    plain.shrinkViolations = false;
    fuzz::SweepOptions broken = plain;
    broken.apps = {"mod-hashmap-broken"};

    const std::vector<fuzz::AppSweepReport> alone = fuzz::sweep(plain);
    std::vector<fuzz::AppSweepReport> beside;
    std::vector<fuzz::AppSweepReport> bad;
    testing::internal::CaptureStderr();
    std::thread other([&] { bad = fuzz::sweep(broken); });
    beside = fuzz::sweep(plain);
    other.join();
    testing::internal::GetCapturedStderr();

    ASSERT_EQ(alone.size(), 1u);
    ASSERT_EQ(beside.size(), 1u);
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_GT(bad[0].lincheckViolations, 0u)
        << "the broken commit went unnoticed";
    EXPECT_EQ(beside[0].violations, 0u);
    EXPECT_EQ(beside[0].lincheckViolations, 0u);
    EXPECT_EQ(beside[0].digest, alone[0].digest);
}

// --------------------------------------- workload-driver recording

TEST(LincheckWorkload, DriverRecordsChecksAndStaysDeterministic)
{
    workload::WorkloadOptions opts;
    opts.app = "mod-hashmap";
    opts.mix = workload::MixSpec::ycsb('A');
    opts.keys = 120;
    opts.threads = 3;
    opts.opsPerThread = 80;
    opts.poolBytes = 96 << 20;
    opts.lincheck = true;

    const workload::WorkloadResult a = workload::runWorkload(opts);
    EXPECT_TRUE(a.lincheckRan);
    EXPECT_EQ(a.lincheckViolations, 0u);
    EXPECT_GE(a.lincheckKeys, opts.keys);
    EXPECT_TRUE(a.verified) << a.check.describe();

    const workload::WorkloadResult b = workload::runWorkload(opts);
    EXPECT_EQ(a.digest(), b.digest());

    // The recording changes neither the op stream nor its results.
    workload::WorkloadOptions plain = opts;
    plain.lincheck = false;
    const workload::WorkloadResult c = workload::runWorkload(plain);
    EXPECT_FALSE(c.lincheckRan);
    EXPECT_EQ(c.ops.reads, a.ops.reads);
    EXPECT_EQ(c.ops.readsFound, a.ops.readsFound);
    EXPECT_EQ(c.ops.updates, a.ops.updates);
    EXPECT_TRUE(c.verified);
}

TEST(LincheckWorkload, RmwAndInsertMixesFindWitnesses)
{
    for (const char *app : {"mod-vector", "halo-hashmap"}) {
        workload::WorkloadOptions opts;
        opts.app = app;
        opts.mix = workload::MixSpec::ycsb(
            std::string(app) == "mod-vector" ? 'F' : 'D');
        opts.dist = workload::KeyDist::Latest;
        opts.keys = 90;
        opts.threads = 3;
        opts.opsPerThread = 60;
        opts.poolBytes = 96 << 20;
        opts.lincheck = true;
        const workload::WorkloadResult res =
            workload::runWorkload(opts);
        EXPECT_TRUE(res.lincheckRan) << app;
        EXPECT_EQ(res.lincheckViolations, 0u) << app;
        EXPECT_TRUE(res.verified) << app << ": "
                                  << res.check.describe();
    }
}

} // namespace
} // namespace whisper
