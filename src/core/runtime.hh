/**
 * @file
 * Execution runtime tying the substrates together.
 *
 * A Runtime owns one simulated PM device (PmPool), the logical clock
 * its contexts share until splitClocks(), the per-thread trace buffers
 * and the per-thread PmContexts.
 * Applications are written against PmContext; the runtime provides
 * thread launch, crash injection and re-mount orchestration so that
 * every WHISPER app and every test drives the stack the same way.
 */

#ifndef WHISPER_CORE_RUNTIME_HH
#define WHISPER_CORE_RUNTIME_HH

#include <functional>
#include <memory>
#include <vector>

#include "pm/pm_context.hh"
#include "trace/trace_set.hh"

namespace whisper::core
{

/**
 * One application run's world: device, clock, traces, threads.
 */
class Runtime
{
  public:
    /**
     * @param pool_bytes size of the simulated PM device
     * @param max_threads contexts/trace buffers created up front
     * @param record_volatile store DRAM events (needed by the timing
     *        simulator and Figure 6), not just counters
     * @param elision txlib::ElisionPolicy mask every context carries
     */
    Runtime(std::size_t pool_bytes, unsigned max_threads,
            bool record_volatile = false, std::uint32_t elision = 0);

    pm::PmPool &pool() { return *pool_; }
    trace::TraceSet &traces() { return traces_; }
    const trace::TraceSet &traces() const { return traces_; }

    unsigned maxThreads() const { return static_cast<unsigned>(
        contexts_.size()); }

    /** Per-thread instrumented context (tid < maxThreads). */
    pm::PmContext &ctx(ThreadId tid);

    /**
     * Put every context on its own clock, started at the shared
     * clock's current time (PmContext::splitClock()), so no thread's
     * PM op advances a clock another thread advances. Timestamps are then
     * each thread's parallel time, and TraceSet::merged() orders
     * them by (tick, tid): a deterministic order, whatever the host
     * schedule. Only for partitioned clients, each thread seeing only
     * its own keys (WhisperApp::workloadSetup() calls it after
     * preload). One-way for the Runtime's life.
     */
    void splitClocks();

    /**
     * Run @p fn on @p n real threads (tid 0..n-1), joining all.
     * Thread 0's work runs on the calling thread.
     */
    void runThreads(unsigned n,
                    const std::function<void(pm::PmContext &,
                                             ThreadId)> &fn);

    /** Adversarial crash: each dirty line survives with p=survival. */
    void crash(std::uint64_t seed, double survival = 0.5);

    /** Crash where nothing un-persisted survives. */
    void crashHard();

    /** Crash where exactly @p survivors persist (crash fuzzer). */
    void crashWithSurvivors(const std::vector<LineAddr> &survivors);

    /**
     * Crash with media faults: @p survivors persist except as
     * @p faults dictates — torn lines keep only their masked 8-byte
     * words, poisoned lines are lost outright and must be scrubbed
     * before recovery reads them (see PmPool::crashWithFaults).
     */
    void crashWithFaults(const std::vector<LineAddr> &survivors,
                         const pm::FaultResolution &faults);

    /** @{ \name Crash-point injection (crash fuzzer)
     *
     * installCrashPlan() attaches a fresh op-counting CrashPlan to
     * every context (uninstalled runtimes pay no per-op overhead);
     * with @p gate_threads > 1 the plan also carries a SchedGate that
     * pins the interleaving of the racing threads' PM ops to the
     * seeded @p schedule_seed, making global op indices — and thus
     * crash points — deterministic. armCrashPoint() schedules a
     * CrashPointReached throw immediately before the PM op with
     * global index @p op_index, counted from the install/arm point.
     */
    pm::CrashPlan &installCrashPlan(unsigned gate_threads = 1,
                                    std::uint64_t schedule_seed = 0);
    void armCrashPoint(std::uint64_t op_index);
    std::uint64_t pmOpsSeen() const;
    /** @} */

    /** Drop recorded trace events (e.g. after a setup phase). */
    void clearTraces() { traces_.clear(); }

  private:
    LogicalClock clock_;
    std::unique_ptr<pm::PmPool> pool_;
    trace::TraceSet traces_;
    std::shared_ptr<pm::DramPages> dramPages_;
    std::vector<std::unique_ptr<pm::PmContext>> contexts_;
    std::unique_ptr<pm::CrashPlan> crashPlan_;
    std::unique_ptr<pm::SchedGate> schedGate_;
};

} // namespace whisper::core

#endif // WHISPER_CORE_RUNTIME_HH
