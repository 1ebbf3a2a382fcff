#include "pm/pm_pool.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace whisper::pm
{

PmPool::PmPool(std::size_t size, const DimmConfig &dimms)
    : size_(size),
      dimms_(dimms),
      arch_(size, 0),
      durable_(size, 0),
      lineStates_((size + kCacheLineSize - 1) / kCacheLineSize),
      poisoned_((size + kCacheLineSize - 1) / kCacheLineSize)
{
    panic_if(size == 0, "empty PmPool");
    for (auto &st : lineStates_)
        st.store(0, std::memory_order_relaxed);
    for (auto &p : poisoned_)
        p.store(0, std::memory_order_relaxed);
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

PmPool::ShardGuard::ShardGuard(const PmPool &pool, LineAddr first,
                               LineAddr last)
    : pool_(pool), shards_(std::uint64_t(1) << shardOf(first))
{
    // A one-line access (nearly every one) takes its one shard; a
    // wider one stops collecting once it has every shard.
    constexpr std::uint64_t kAll = ~std::uint64_t(0);
    for (LineAddr line = first + 1; line <= last && shards_ != kAll; line++)
        shards_ |= std::uint64_t(1) << shardOf(line);
    for (std::uint64_t m = shards_; m != 0; m &= m - 1)
        pool_.lineShards_[std::countr_zero(m)].mutex.lock();
}

PmPool::ShardGuard::~ShardGuard()
{
    for (std::uint64_t m = shards_; m != 0; m &= m - 1)
        pool_.lineShards_[std::countr_zero(m)].mutex.unlock();
}

void
PmPool::applyStore(Addr off, const void *src, std::size_t n)
{
    boundsCheck(off, n);
    if (n == 0)
        return;
    const LineAddr first = lineOf(off);
    const LineAddr last = lineOf(off + n - 1);
    ShardGuard guard(*this, first, last);
    std::memcpy(arch_.data() + off, src, n);
    for (LineAddr line = first; line <= last; line++) {
        lineStates_[line].store(1, std::memory_order_relaxed);
        clearPoison(line);
    }
}

void
PmPool::clearPoison(LineAddr line)
{
    // Writing a poisoned line re-programs the failed cells (the device
    // remaps on write); the line is readable again. Only fault plans
    // poison, so the plain load keeps the store path read-only here.
    if (poisoned_[line].load(std::memory_order_relaxed) &&
        poisoned_[line].exchange(0, std::memory_order_relaxed))
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
    std::memcpy(arch_.data() + off, &desired, 8);
    lineStates_[line].store(1, std::memory_order_relaxed);
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
        if (poisoned_[line].load(std::memory_order_relaxed)) {
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
    panic_if(line >= lineStates_.size(), "persist of line %llu beyond pool",
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
    lineStates_[line].store(0, std::memory_order_relaxed);
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
    panic_if(line >= lineStates_.size(), "line %llu beyond pool",
             static_cast<unsigned long long>(line));
    return lineStates_[line].load(std::memory_order_relaxed) != 0;
}

std::uint64_t
PmPool::dirtyLineCount() const
{
    std::uint64_t n = 0;
    for (const auto &st : lineStates_)
        n += st.load(std::memory_order_relaxed) != 0;
    return n;
}

std::vector<LineAddr>
PmPool::dirtyLines() const
{
    std::vector<LineAddr> lines;
    for (LineAddr line = 0; line < lineStates_.size(); line++) {
        if (lineStates_[line].load(std::memory_order_relaxed))
            lines.push_back(line);
    }
    return lines;
}

std::vector<LineAddr>
PmPool::pickSurvivors(Rng &rng, double survival) const
{
    std::vector<LineAddr> survivors;
    for (LineAddr line = 0; line < lineStates_.size(); line++) {
        if (lineStates_[line].load(std::memory_order_relaxed) &&
            rng.chance(survival)) {
            survivors.push_back(line);
        }
    }
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
    for (const LineAddr line : survivors) {
        if (!lineDirty(line))
            continue;
        if (std::find(faults.poisoned.begin(), faults.poisoned.end(),
                      line) != faults.poisoned.end())
            continue; // lost outright below
        const TornLine *torn = nullptr;
        for (const TornLine &t : faults.torn) {
            if (t.line == line) {
                torn = &t;
                break;
            }
        }
        if (!torn) {
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
        lineStates_[line].store(0, std::memory_order_relaxed);
        events_.linesTorn++;
    }
    for (const LineAddr line : faults.poisoned) {
        panic_if(line >= lineStates_.size(),
                 "poison of line %llu beyond pool",
                 static_cast<unsigned long long>(line));
        ShardGuard guard(*this, line, line);
        const Addr base = line << kCacheLineBits;
        const std::size_t n = std::min(kCacheLineSize, size_ - base);
        std::memset(durable_.data() + base, 0, n);
        poisoned_[line].store(1, std::memory_order_relaxed);
        events_.linesPoisoned++;
    }
    arch_ = durable_;
    for (auto &st : lineStates_)
        st.store(0, std::memory_order_relaxed);
    events_.crashes++;
}

void
PmPool::scrubLine(LineAddr line)
{
    panic_if(line >= lineStates_.size(), "scrub of line %llu beyond pool",
             static_cast<unsigned long long>(line));
    ShardGuard guard(*this, line, line);
    const Addr base = line << kCacheLineBits;
    const std::size_t n = std::min(kCacheLineSize, size_ - base);
    std::memset(arch_.data() + base, 0, n);
    std::memset(durable_.data() + base, 0, n);
    lineStates_[line].store(0, std::memory_order_relaxed);
    poisoned_[line].store(0, std::memory_order_relaxed);
    events_.linesScrubbed++;
}

void
PmPool::poisonLine(LineAddr line)
{
    panic_if(line >= lineStates_.size(),
             "poison of line %llu beyond pool",
             static_cast<unsigned long long>(line));
    poisoned_[line].store(1, std::memory_order_relaxed);
    events_.linesPoisoned++;
}

bool
PmPool::linePoisoned(LineAddr line) const
{
    panic_if(line >= lineStates_.size(), "line %llu beyond pool",
             static_cast<unsigned long long>(line));
    return poisoned_[line].load(std::memory_order_relaxed) != 0;
}

std::vector<LineAddr>
PmPool::poisonedLines() const
{
    std::vector<LineAddr> lines;
    for (LineAddr line = 0; line < poisoned_.size(); line++) {
        if (poisoned_[line].load(std::memory_order_relaxed))
            lines.push_back(line);
    }
    return lines;
}

void
PmPool::evictRandomLines(Rng &rng, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; i++) {
        const LineAddr line = rng.next(lineStates_.size());
        if (lineStates_[line].load(std::memory_order_relaxed)) {
            persistLine(line);
            events_.linesEvicted++;
        }
    }
}

} // namespace whisper::pm
