/**
 * @file
 * Counting Bloom filter.
 *
 * HOPS attaches one to each persist-buffer back end to keep a
 * conservative set of buffered line addresses: an LLC miss whose line
 * might still be buffered must stall until the write-back completes
 * (paper §6.3). Counting (not plain) so entries can be removed as
 * epochs drain.
 */

#ifndef WHISPER_SIM_BLOOM_HH
#define WHISPER_SIM_BLOOM_HH

#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace whisper::sim
{

/**
 * Counting Bloom filter over cache-line addresses.
 */
class CountingBloom
{
  public:
    explicit CountingBloom(std::size_t buckets = 1024)
        : counts_(buckets, 0)
    {
    }

    void
    insert(LineAddr line)
    {
        // Saturate instead of wrapping: a wrapped counter would read 0
        // and produce the false negative the class contract forbids.
        for (int h = 0; h < kHashes; h++) {
            auto &c = counts_[slot(line, h)];
            if (c < kSaturated)
                c++;
        }
    }

    void
    remove(LineAddr line)
    {
        for (int h = 0; h < kHashes; h++) {
            auto &c = counts_[slot(line, h)];
            panic_if(c == 0,
                     "CountingBloom: remove of line %llu underflows a "
                     "counter (remove without matching insert)",
                     static_cast<unsigned long long>(line));
            // A saturated counter has lost its exact count; it must
            // stay pinned or a later remove could drop a live entry
            // to zero.
            if (c < kSaturated)
                c--;
        }
    }

    /** Possibly-present test (no false negatives). */
    bool
    mightContain(LineAddr line) const
    {
        for (int h = 0; h < kHashes; h++) {
            if (counts_[slot(line, h)] == 0)
                return false;
        }
        return true;
    }

  private:
    static constexpr int kHashes = 2;
    static constexpr std::uint16_t kSaturated = 0xFFFF;

    std::size_t
    slot(LineAddr line, int h) const
    {
        std::uint64_t x =
            line + static_cast<std::uint64_t>(h) * kGoldenGamma;
        x ^= x >> 31;
        x *= 0x7fb5d329728ea185ull;
        x ^= x >> 29;
        return static_cast<std::size_t>(x % counts_.size());
    }

    std::vector<std::uint16_t> counts_;
};

} // namespace whisper::sim

#endif // WHISPER_SIM_BLOOM_HH
