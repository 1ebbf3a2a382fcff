#include "core/runtime.hh"

#include <thread>

#include "common/logging.hh"

namespace whisper::core
{

Runtime::Runtime(std::size_t pool_bytes, unsigned max_threads,
                 bool record_volatile, std::uint32_t elision)
    : pool_(std::make_unique<pm::PmPool>(pool_bytes)),
      traces_(record_volatile),
      dramPages_(std::make_shared<pm::DramPages>())
{
    panic_if(max_threads == 0, "runtime needs at least one thread");
    for (ThreadId tid = 0; tid < max_threads; tid++) {
        trace::TraceBuffer *buf = traces_.createBuffer(tid);
        contexts_.push_back(std::make_unique<pm::PmContext>(
            *pool_, clock_, tid, buf, elision, dramPages_));
    }
}

pm::PmContext &
Runtime::ctx(ThreadId tid)
{
    panic_if(tid >= contexts_.size(), "tid %u beyond runtime threads",
             tid);
    return *contexts_[tid];
}

void
Runtime::splitClocks()
{
    for (auto &ctx : contexts_)
        ctx->splitClock();
}

void
Runtime::runThreads(unsigned n,
                    const std::function<void(pm::PmContext &,
                                             ThreadId)> &fn)
{
    panic_if(n == 0 || n > contexts_.size(),
             "runThreads(%u) with %zu contexts", n, contexts_.size());
    std::vector<std::thread> threads;
    for (ThreadId tid = 1; tid < n; tid++) {
        threads.emplace_back(
            [this, &fn, tid] { fn(*contexts_[tid], tid); });
    }
    fn(*contexts_[0], 0);
    for (auto &t : threads)
        t.join();
}

void
Runtime::crash(std::uint64_t seed, double survival)
{
    Rng rng(seed);
    crashWithSurvivors(pool_->pickSurvivors(rng, survival));
}

void
Runtime::crashHard()
{
    crashWithFaults({}, {});
}

void
Runtime::crashWithSurvivors(const std::vector<LineAddr> &survivors)
{
    crashWithFaults(survivors, {});
}

void
Runtime::crashWithFaults(const std::vector<LineAddr> &survivors,
                         const pm::FaultResolution &faults)
{
    pool_->crashWithFaults(survivors, faults);
    for (auto &ctx : contexts_)
        ctx->resetPendingState();
}

pm::CrashPlan &
Runtime::installCrashPlan(unsigned gate_threads,
                          std::uint64_t schedule_seed)
{
    crashPlan_ = std::make_unique<pm::CrashPlan>();
    if (gate_threads > 1) {
        panic_if(gate_threads > contexts_.size(),
                 "crash plan gates %u threads but runtime has %zu",
                 gate_threads, contexts_.size());
        schedGate_ =
            std::make_unique<pm::SchedGate>(gate_threads, schedule_seed);
        crashPlan_->gate = schedGate_.get();
    } else {
        schedGate_.reset();
    }
    for (auto &ctx : contexts_)
        ctx->setCrashPlan(crashPlan_.get());
    return *crashPlan_;
}

void
Runtime::armCrashPoint(std::uint64_t op_index)
{
    pm::CrashPlan &plan =
        crashPlan_ ? *crashPlan_ : installCrashPlan();
    plan.opsSeen.store(0, std::memory_order_relaxed);
    plan.fired.store(false, std::memory_order_relaxed);
    plan.crashAt = op_index;
    if (plan.gate)
        plan.gate->reset();
}

std::uint64_t
Runtime::pmOpsSeen() const
{
    return crashPlan_
               ? crashPlan_->opsSeen.load(std::memory_order_relaxed)
               : 0;
}

} // namespace whisper::core
