/**
 * @file
 * The "faulty" test fixture: a deliberately broken native-layer store
 * the crash fuzzer must catch and shrink. createApp() resolves it by
 * name; it is not part of the suite (registeredApps()).
 *
 * Two persistent counters live in separate cache lines and must stay
 * equal. The workload bumps them in two *separate* epochs — counter A
 * is made durable before counter B is even written — so any crash
 * point between the two durability fences leaves A one step ahead of
 * B in the durable image. There is no log and recover() is a no-op:
 * the divergence survives recovery, and checkRecoveryInvariants()
 * reports it. This is the canonical ordering bug the WHISPER paper's
 * access layers exist to prevent, distilled to six PM ops per
 * iteration.
 */

#include "apps/apps.hh"

namespace whisper::apps
{

namespace
{

using namespace core;

constexpr Addr kCounterA = 0;  //!< line 0
constexpr Addr kCounterB = 64; //!< line 1: never persists with A

class FaultyApp : public WhisperApp
{
  public:
    explicit FaultyApp(const AppConfig &config) : WhisperApp(config) {}

    std::string name() const override { return "faulty"; }
    AccessLayer layer() const override { return AccessLayer::Native; }

    void
    setup(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        const std::uint64_t zero = 0;
        ctx.store(kCounterA, &zero, sizeof(zero));
        ctx.store(kCounterB, &zero, sizeof(zero));
        ctx.persist(kCounterA, sizeof(zero));
        ctx.persist(kCounterB, sizeof(zero));
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        (void)tid;
        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            const std::uint64_t v = op + 1;
            // BUG: A reaches durability in its own epoch; a power cut
            // here leaves A == v, B == v - 1 with nothing to roll it
            // back. The correct protocol would log or order the pair.
            ctx.store(kCounterA, &v, sizeof(v));
            ctx.flush(kCounterA, sizeof(v));
            ctx.fence(trace::FenceKind::Durability);
            ctx.store(kCounterB, &v, sizeof(v));
            ctx.flush(kCounterB, sizeof(v));
            ctx.fence(trace::FenceKind::Durability);
        }
    }

    VerifyReport
    verify(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        ctx.load(kCounterA, &a, sizeof(a));
        ctx.load(kCounterB, &b, sizeof(b));
        VerifyReport rep = report();
        rep.check(a == b && a == config_.opsPerThread,
                  "counters-complete",
                  "a=" + std::to_string(a) +
                      " b=" + std::to_string(b));
        return rep;
    }

    void recover(Runtime &rt) override { (void)rt; }

    /** The post-crash contract itself is vacuous — the divergence is
     *  only visible to the invariant check, as with a real torn
     *  protocol whose application-level reads still "work". */
    VerifyReport verifyRecovered(Runtime &rt) override
    {
        (void)rt;
        return report();
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        ctx.load(kCounterA, &a, sizeof(a));
        ctx.load(kCounterB, &b, sizeof(b));
        VerifyReport rep = report();
        rep.check(a == b, "counters-equal",
                  "a=" + std::to_string(a) +
                      " b=" + std::to_string(b));
        return rep;
    }
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeFaultyApp(const core::AppConfig &config)
{
    return std::make_unique<FaultyApp>(config);
}

} // namespace whisper::apps
