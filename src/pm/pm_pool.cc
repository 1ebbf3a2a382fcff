#include "pm/pm_pool.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <thread>

#include "common/logging.hh"

namespace whisper::pm
{

namespace
{

/** The spin-wait hint: lets a sibling hyperthread run meanwhile. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

std::size_t
checkedSize(std::size_t size)
{
    panic_if(size == 0, "empty PmPool");
    return size;
}

} // namespace

PmPool::PmPool(std::size_t size, const DimmConfig &dimms)
    : size_(checkedSize(size)),
      lines_((size + kCacheLineSize - 1) / kCacheLineSize),
      dimms_(dimms),
      arch_(size),
      durable_(size),
      lineStates_(lines_),
      poisoned_(lines_),
      // One bit per page, in whole 64-bit words.
      written_(((lines_ >> kLinesPerPageBits) / 64 + 1) *
               sizeof(std::uint64_t))
{
}

void
PmPool::markWritten(LineAddr first, LineAddr last)
{
    auto *words = reinterpret_cast<std::uint64_t *>(written_.data());
    for (LineAddr page = first >> kLinesPerPageBits;
         page <= last >> kLinesPerPageBits; page++) {
        // Test first, as clearPoison() does: after a page's first
        // write every later store to it only reads its map word.
        std::atomic_ref<std::uint64_t> word(words[page / 64]);
        const std::uint64_t bit = std::uint64_t(1) << (page % 64);
        if (!(word.load(std::memory_order_relaxed) & bit))
            word.fetch_or(bit, std::memory_order_relaxed);
    }
}

template <typename Fn>
void
PmPool::forEachWrittenPage(Fn &&fn) const
{
    auto *words = reinterpret_cast<std::uint64_t *>(written_.data());
    const std::size_t n = written_.size() / sizeof(std::uint64_t);
    for (std::size_t w = 0; w < n; w++) {
        std::uint64_t m = std::atomic_ref<std::uint64_t>(words[w]).load(
            std::memory_order_relaxed);
        for (; m != 0; m &= m - 1)
            fn(static_cast<LineAddr>(w * 64 + std::countr_zero(m)));
    }
}

template <typename Fn>
void
PmPool::forEachWrittenLine(Fn &&fn) const
{
    forEachWrittenPage([&](LineAddr page) {
        const LineAddr first = page << kLinesPerPageBits;
        const LineAddr end = std::min<LineAddr>(
            first + (LineAddr(1) << kLinesPerPageBits), lines_);
        for (LineAddr line = first; line < end; line++)
            fn(line);
    });
}

void
PmPool::boundsCheck(Addr off, std::size_t n) const
{
    panic_if(off > size_ || n > size_ - off,
             "PM access [%llu, +%zu) outside pool of %zu bytes",
             static_cast<unsigned long long>(off), n, size_);
}

Addr
PmPool::offsetOf(const void *p) const
{
    const auto *bytes = static_cast<const std::uint8_t *>(p);
    panic_if(!contains(p), "pointer does not point into the pool");
    return static_cast<Addr>(bytes - arch_.data());
}

bool
PmPool::contains(const void *p) const
{
    const auto *bytes = static_cast<const std::uint8_t *>(p);
    return bytes >= arch_.data() && bytes < arch_.data() + size_;
}

void
PmPool::LineShard::lockContended()
{
    // Spin on a plain load so waiters share the line until it is
    // released; yield once the holder seems descheduled.
    constexpr unsigned kSpinsBeforeYield = 128;
    for (unsigned spins = 0;; spins++) {
        if (locked.load(std::memory_order_relaxed) == 0 &&
            locked.exchange(1, std::memory_order_acquire) == 0)
            return;
        if (spins < kSpinsBeforeYield)
            cpuRelax();
        else
            std::this_thread::yield();
    }
}

void
PmPool::ShardGuard::lockRange(LineAddr first, LineAddr last)
{
    // A wider access stops collecting once it has every shard.
    constexpr std::uint64_t kAll = ~std::uint64_t(0);
    for (LineAddr line = first + 1; line <= last && shards_ != kAll; line++)
        shards_ |= std::uint64_t(1) << shardOf(line);
    for (std::uint64_t m = shards_; m != 0; m &= m - 1)
        pool_.lineShards_[std::countr_zero(m)].lock();
}

void
PmPool::ShardGuard::unlockAll()
{
    for (std::uint64_t m = shards_; m != 0; m &= m - 1)
        pool_.lineShards_[std::countr_zero(m)].unlock();
}

void
PmPool::applyStore(Addr off, const void *src, std::size_t n)
{
    boundsCheck(off, n);
    if (n == 0)
        return;
    const LineAddr first = lineOf(off);
    const LineAddr last = lineOf(off + n - 1);
    markWritten(first, last);
    ShardGuard guard(*this, first, last);
    std::memcpy(arch_.data() + off, src, n);
    for (LineAddr line = first; line <= last; line++) {
        lineState(line).store(1, std::memory_order_relaxed);
        clearPoison(line);
    }
}

void
PmPool::clearPoison(LineAddr line)
{
    // Writing a poisoned line re-programs the failed cells (the device
    // remaps on write); the line is readable again. Only fault plans
    // poison, so the plain load keeps the store path read-only here.
    const std::atomic_ref<std::uint8_t> p = poison(line);
    if (p.load(std::memory_order_relaxed) &&
        p.exchange(0, std::memory_order_relaxed))
        events_.poisonCleared++;
}

bool
PmPool::applyCas64(Addr off, std::uint64_t expected, std::uint64_t desired)
{
    boundsCheck(off, 8);
    panic_if(off % 8 != 0, "unaligned 8-byte CAS at %llu",
             static_cast<unsigned long long>(off));
    const LineAddr line = lineOf(off);
    ShardGuard guard(*this, line, line);
    std::uint64_t cur;
    std::memcpy(&cur, arch_.data() + off, 8);
    if (cur != expected)
        return false;
    markWritten(line, line);
    std::memcpy(arch_.data() + off, &desired, 8);
    lineState(line).store(1, std::memory_order_relaxed);
    clearPoison(line);
    return true;
}

void
PmPool::applyLoad(Addr off, void *dst, std::size_t n) const
{
    boundsCheck(off, n);
    if (n == 0)
        return;
    const LineAddr first = lineOf(off);
    const LineAddr last = lineOf(off + n - 1);
    // Transient read fault: a marginal cell makes the load fail, the
    // (simulated) retry loop re-reads and succeeds within the plan's
    // retry bound. Visible only in the fault counters — no PM op is
    // emitted, so traced op counts and crash-point indices are
    // unaffected.
    if (faultPlan_.transientEvery != 0) {
        const std::uint64_t idx =
            loadIndex_.fetch_add(1, std::memory_order_relaxed);
        if (idx % faultPlan_.transientEvery ==
            faultPlan_.transientEvery - 1)
            events_.transientFaults++;
    }
    ShardGuard guard(*this, first, last);
    for (LineAddr line = first; line <= last; line++) {
        if (poison(line).load(std::memory_order_relaxed)) {
            // Uncorrectable: retries cannot help, the media lost the
            // line. Recoverable by scrubLine(); never a panic.
            events_.mediaErrors++;
            const Addr base = line << kCacheLineBits;
            throw PmMediaError(base > off ? base : off, line);
        }
    }
    std::memcpy(dst, arch_.data() + off, n);
}

void
PmPool::persistLine(LineAddr line)
{
    panic_if(line >= lines_, "persist of line %llu beyond pool",
             static_cast<unsigned long long>(line));
    ShardGuard guard(*this, line, line);
    persistLineLocked(line);
}

void
PmPool::persistLineLocked(LineAddr line)
{
    const Addr base = line << kCacheLineBits;
    const std::size_t n = std::min(kCacheLineSize, size_ - base);
    std::memcpy(durable_.data() + base, arch_.data() + base, n);
    lineState(line).store(0, std::memory_order_relaxed);
    // The caller holds this shard's lock: no other thread writes it.
    std::atomic<std::uint64_t> &count =
        lineShards_[shardOf(line)].persisted[dimms_.dimmOf(line)];
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

PoolStats
PmPool::stats() const
{
    PoolStats out;
    for (const LineShard &shard : lineShards_) {
        for (unsigned d = 0; d < kMaxDimms; d++) {
            const std::uint64_t n =
                shard.persisted[d].load(std::memory_order_relaxed);
            out.dimmLinesPersisted[d] += n;
            out.linesPersisted += n;
        }
    }
    out.linesEvicted = events_.linesEvicted;
    out.linesSurvivedCrash = events_.linesSurvivedCrash;
    out.crashes = events_.crashes;
    out.linesTorn = events_.linesTorn;
    out.linesPoisoned = events_.linesPoisoned;
    out.poisonCleared = events_.poisonCleared;
    out.linesScrubbed = events_.linesScrubbed;
    out.transientFaults = events_.transientFaults;
    out.mediaErrors = events_.mediaErrors;
    return out;
}

void
PmPool::persistRange(Addr off, std::size_t n)
{
    if (n == 0)
        return;
    boundsCheck(off, n);
    const LineAddr first = lineOf(off);
    const LineAddr last = lineOf(off + n - 1);
    for (LineAddr line = first; line <= last; line++)
        persistLine(line);
}

bool
PmPool::lineDirty(LineAddr line) const
{
    panic_if(line >= lines_, "line %llu beyond pool",
             static_cast<unsigned long long>(line));
    return lineState(line).load(std::memory_order_relaxed) != 0;
}

// Only a store marks a line dirty, and a store marks its page written:
// the walks below skip nothing but clean lines.

std::uint64_t
PmPool::dirtyLineCount() const
{
    std::uint64_t n = 0;
    forEachWrittenLine([&](LineAddr line) {
        n += lineState(line).load(std::memory_order_relaxed) != 0;
    });
    return n;
}

std::vector<LineAddr>
PmPool::dirtyLines() const
{
    std::vector<LineAddr> lines;
    forEachWrittenLine([&](LineAddr line) {
        if (lineState(line).load(std::memory_order_relaxed))
            lines.push_back(line);
    });
    return lines;
}

std::vector<LineAddr>
PmPool::pickSurvivors(Rng &rng, double survival) const
{
    // One draw per dirty line in ascending order, as a scan of every
    // line would make: survivor sets do not depend on the walk.
    std::vector<LineAddr> survivors;
    forEachWrittenLine([&](LineAddr line) {
        if (lineState(line).load(std::memory_order_relaxed) &&
            rng.chance(survival)) {
            survivors.push_back(line);
        }
    });
    return survivors;
}

void
PmPool::crash(Rng &rng, double survival)
{
    crashWithSurvivors(pickSurvivors(rng, survival));
}

void
PmPool::crashWithSurvivors(const std::vector<LineAddr> &survivors)
{
    crashWithFaults(survivors, {});
}

void
PmPool::crashHard()
{
    crashWithFaults({}, {});
}

FaultResolution
PmPool::resolveFaults(const FaultPlan &plan,
                      const std::vector<LineAddr> &survivors) const
{
    FaultResolution out;
    if (plan.none())
        return out;
    Rng rng(plan.seed);

    // Poison: up to poisonCount distinct dirty lines are lost
    // outright — drawn from the full dirty set (a write in flight is
    // exactly what a power cut catches mid-program on the media).
    if (plan.poisonCount != 0) {
        std::vector<LineAddr> dirty = dirtyLines();
        for (std::uint32_t i = 0;
             i < plan.poisonCount && !dirty.empty(); i++) {
            const std::size_t pick = rng.next(dirty.size());
            out.poisoned.push_back(dirty[pick]);
            dirty.erase(dirty.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        }
        std::sort(out.poisoned.begin(), out.poisoned.end());
    }

    // Tearing: each surviving, non-poisoned line persists only a
    // proper subset of its 8-byte words with probability tearProb.
    if (plan.tearProb > 0.0) {
        for (const LineAddr line : survivors) {
            if (std::find(out.poisoned.begin(), out.poisoned.end(),
                          line) != out.poisoned.end())
                continue;
            if (!rng.chance(plan.tearProb))
                continue;
            // Masks 1..254: at least one word persists, at least one
            // is lost (0 == vanished, 255 == survived whole — both
            // already covered by the survivor dimension).
            out.torn.push_back(TornLine{
                line, static_cast<std::uint8_t>(rng.range(1, 254))});
        }
    }
    return out;
}

void
PmPool::crashWithFaults(const std::vector<LineAddr> &survivors,
                        const FaultResolution &faults)
{
    // The poisoned list is sorted and the torn list follows the
    // ascending survivors, so one forward cursor each finds a
    // survivor's fault.
    panic_if(std::adjacent_find(survivors.begin(), survivors.end(),
                                std::greater_equal<>()) !=
                 survivors.end(),
             "crash survivors not strictly ascending");
    auto poisoned = faults.poisoned.begin();
    auto torn = faults.torn.begin();
    for (const LineAddr line : survivors) {
        if (!lineDirty(line))
            continue;
        while (poisoned != faults.poisoned.end() && *poisoned < line)
            ++poisoned;
        if (poisoned != faults.poisoned.end() && *poisoned == line)
            continue; // lost outright below
        while (torn != faults.torn.end() && torn->line < line)
            ++torn;
        if (torn == faults.torn.end() || torn->line != line) {
            persistLine(line);
            // Crash survivals are a separate phenomenon from cache
            // evictions; conflating them skewed every eviction-rate
            // report.
            events_.linesSurvivedCrash++;
            continue;
        }
        // Torn: only the masked 8-byte words reached the media; the
        // rest keep their previous durable value.
        ShardGuard guard(*this, line, line);
        markWritten(line, line);
        const Addr base = line << kCacheLineBits;
        for (unsigned w = 0; w < 8; w++) {
            if (!(torn->mask & (1u << w)))
                continue;
            const Addr word = base + w * 8;
            if (word + 8 > size_)
                break;
            std::memcpy(durable_.data() + word, arch_.data() + word,
                        8);
        }
        lineState(line).store(0, std::memory_order_relaxed);
        events_.linesTorn++;
    }
    for (const LineAddr line : faults.poisoned) {
        panic_if(line >= lines_, "poison of line %llu beyond pool",
                 static_cast<unsigned long long>(line));
        ShardGuard guard(*this, line, line);
        markWritten(line, line);
        const Addr base = line << kCacheLineBits;
        const std::size_t n = std::min(kCacheLineSize, size_ - base);
        std::memset(durable_.data() + base, 0, n);
        poison(line).store(1, std::memory_order_relaxed);
        events_.linesPoisoned++;
    }
    // Re-mount: the architectural image reloads from the durable one.
    // Unwritten pages are zero in both and hold no dirty line.
    forEachWrittenPage([&](LineAddr page) {
        const Addr base = page << kPageBits;
        const std::size_t n =
            std::min(std::size_t(1) << kPageBits, size_ - base);
        std::memcpy(arch_.data() + base, durable_.data() + base, n);
    });
    forEachWrittenLine([&](LineAddr line) {
        lineState(line).store(0, std::memory_order_relaxed);
    });
    events_.crashes++;
}

void
PmPool::scrubLine(LineAddr line)
{
    panic_if(line >= lines_, "scrub of line %llu beyond pool",
             static_cast<unsigned long long>(line));
    ShardGuard guard(*this, line, line);
    markWritten(line, line);
    const Addr base = line << kCacheLineBits;
    const std::size_t n = std::min(kCacheLineSize, size_ - base);
    std::memset(arch_.data() + base, 0, n);
    std::memset(durable_.data() + base, 0, n);
    lineState(line).store(0, std::memory_order_relaxed);
    poison(line).store(0, std::memory_order_relaxed);
    events_.linesScrubbed++;
}

void
PmPool::poisonLine(LineAddr line)
{
    panic_if(line >= lines_, "poison of line %llu beyond pool",
             static_cast<unsigned long long>(line));
    markWritten(line, line);
    poison(line).store(1, std::memory_order_relaxed);
    events_.linesPoisoned++;
}

bool
PmPool::linePoisoned(LineAddr line) const
{
    panic_if(line >= lines_, "line %llu beyond pool",
             static_cast<unsigned long long>(line));
    return poison(line).load(std::memory_order_relaxed) != 0;
}

std::vector<LineAddr>
PmPool::poisonedLines() const
{
    // Poisoning a line marks its page, like a store.
    std::vector<LineAddr> lines;
    forEachWrittenLine([&](LineAddr line) {
        if (poison(line).load(std::memory_order_relaxed))
            lines.push_back(line);
    });
    return lines;
}

void
PmPool::evictRandomLines(Rng &rng, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; i++) {
        const LineAddr line = rng.next(lines_);
        if (lineState(line).load(std::memory_order_relaxed)) {
            persistLine(line);
            events_.linesEvicted++;
        }
    }
}

} // namespace whisper::pm
