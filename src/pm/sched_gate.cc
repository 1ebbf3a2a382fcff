#include "pm/sched_gate.hh"

#include <chrono>

#include "common/hash.hh"
#include "common/logging.hh"

namespace whisper::pm
{

namespace
{

/** How long a thread may wait for its turn before we call it a bug. */
constexpr auto kWatchdog = std::chrono::seconds(60);

} // namespace

SchedGate::SchedGate(unsigned threads, std::uint64_t seed)
    : threads_(threads), seed_(seed)
{
    panic_if(threads == 0, "SchedGate needs at least one thread");
    active_.assign(threads_, 1);
}

void
SchedGate::reset()
{
    std::lock_guard<std::mutex> lk(m_);
    slot_ = 0;
    owner_ = -1;
    depth_ = 0;
    active_.assign(threads_, 1);
    open_ = false;
    cv_.notify_all();
}

void
SchedGate::pickLocked()
{
    owner_ = -1;
    bool any = false;
    for (const char a : active_)
        any |= a != 0;
    if (!any)
        return;
    // Draw until an active thread comes up. A draw of an inactive
    // thread consumes its slot, exactly like a draw of a thread whose
    // deactivate() is still in flight (see deactivate()), keeping the
    // owner sequence independent of wall-clock arrival order.
    for (;;) {
        const unsigned cand = static_cast<unsigned>(
            mix64(seed_ ^ slot_++) % threads_);
        if (active_[cand]) {
            owner_ = static_cast<int>(cand);
            return;
        }
    }
}

void
SchedGate::acquire(ThreadId tid)
{
    std::unique_lock<std::mutex> lk(m_);
    if (open_)
        return;
    if (owner_ == static_cast<int>(tid)) {
        depth_++;
        return;
    }
    if (owner_ < 0)
        pickLocked();
    while (!open_ && owner_ != static_cast<int>(tid)) {
        if (cv_.wait_for(lk, kWatchdog) == std::cv_status::timeout) {
            panic("sched gate stalled: thread %u waited %llds for its "
                  "turn (owner=%d) — a gated thread is blocked outside "
                  "the gate (shared lock held across a turn?)",
                  static_cast<unsigned>(tid),
                  static_cast<long long>(kWatchdog.count()), owner_);
        }
    }
    if (open_)
        return;
    depth_ = 1;
}

void
SchedGate::release(ThreadId tid)
{
    std::lock_guard<std::mutex> lk(m_);
    if (open_)
        return;
    panic_if(owner_ != static_cast<int>(tid),
             "sched gate release by thread %u but owner is %d",
             static_cast<unsigned>(tid), owner_);
    panic_if(depth_ == 0, "sched gate release without acquire");
    if (--depth_ == 0) {
        pickLocked();
        cv_.notify_all();
    }
}

void
SchedGate::deactivate(ThreadId tid)
{
    std::lock_guard<std::mutex> lk(m_);
    if (open_)
        return;
    if (static_cast<std::size_t>(tid) >= active_.size())
        return;
    active_[tid] = 0;
    if (owner_ == static_cast<int>(tid)) {
        // The gate had drawn this thread for the next turn; it exits
        // instead. Redraw — the consumed slot matches what a skip
        // would have consumed had the flag already been clear.
        pickLocked();
        cv_.notify_all();
    }
}

void
SchedGate::open()
{
    std::lock_guard<std::mutex> lk(m_);
    open_ = true;
    owner_ = -1;
    depth_ = 0;
    cv_.notify_all();
}

} // namespace whisper::pm
