/**
 * @file
 * Logical clock stamping trace events.
 *
 * The paper timestamps PM operations with ftrace's clock and defines
 * epoch dependencies over a 50 us window. We use a monotonic atomic
 * counter where one tick nominally equals one nanosecond;
 * instrumented operations advance it by small costs so that
 * inter-thread windows and rates (Table 1 epochs/second) are
 * meaningful. A Runtime's contexts share one clock while they work on
 * shared state (paper runs); partitioned workload clients each run on
 * their own clock from a common base (Runtime::splitClocks()).
 */

#ifndef WHISPER_COMMON_LOGICAL_CLOCK_HH
#define WHISPER_COMMON_LOGICAL_CLOCK_HH

#include <atomic>

#include "common/types.hh"

namespace whisper
{

/**
 * Monotonic tick source.
 *
 * advance() models the cost of an instrumented operation. Threads
 * sharing a clock get timestamps in one host-schedule order; threads
 * on split clocks get timestamps in their own parallel time, which
 * TraceSet::merged() orders by (tick, tid).
 */
class LogicalClock
{
  public:
    /** Current time without advancing. */
    Tick now() const { return ticks.load(std::memory_order_relaxed); }

    /** Advance by @p cost ticks and return the *new* time. */
    Tick
    advance(Tick cost)
    {
        return ticks.fetch_add(cost, std::memory_order_relaxed) + cost;
    }

    /**
     * advance() for a clock only the calling thread writes (a split
     * clock): a plain load and store, no locked instruction. Other
     * threads may still read now().
     */
    Tick
    advanceOwned(Tick cost)
    {
        const Tick t = ticks.load(std::memory_order_relaxed) + cost;
        ticks.store(t, std::memory_order_relaxed);
        return t;
    }

    /**
     * Set to @p to (only between experiments, or to start a split
     * clock at its shared clock's time).
     */
    void reset(Tick to = 0) { ticks.store(to, std::memory_order_relaxed); }

    /** Nominal per-operation costs, in ticks (1 tick == 1 ns). */
    static constexpr Tick kStoreCost = 2;
    static constexpr Tick kLoadCost = 2;
    static constexpr Tick kFlushCost = 40;
    static constexpr Tick kFenceCost = 100;
    static constexpr Tick kNtStoreCost = 10;

  private:
    std::atomic<Tick> ticks{0};
};

} // namespace whisper

#endif // WHISPER_COMMON_LOGICAL_CLOCK_HH
