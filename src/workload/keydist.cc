#include "workload/keydist.hh"

#include "common/hash.hh"
#include "common/logging.hh"

namespace whisper::workload
{

const char *
keyDistName(KeyDist dist)
{
    switch (dist) {
      case KeyDist::Uniform: return "uniform";
      case KeyDist::Zipfian: return "zipfian";
      case KeyDist::Latest:  return "latest";
    }
    return "?";
}

bool
parseKeyDist(const std::string &s, KeyDist &out)
{
    if (s == "uniform") {
        out = KeyDist::Uniform;
        return true;
    }
    if (s == "zipfian") {
        out = KeyDist::Zipfian;
        return true;
    }
    if (s == "latest") {
        out = KeyDist::Latest;
        return true;
    }
    return false;
}

KeyChooser::KeyChooser(KeyDist dist, const core::WorkloadKeymap &map,
                       ThreadId tid, double zipf_theta)
    : dist_(dist), map_(map), tid_(tid), loaded_(map.perThread()),
      zipf_(map.perThread() ? map.perThread() : 1, zipf_theta)
{
    panic_if(loaded_ == 0,
             "workload partition is empty (keys < threads)");
}

std::uint64_t
KeyChooser::scramble(std::uint64_t x)
{
    // FNV-1a over the 8 little-endian bytes of x (YCSB's fnvhash64).
    return fnv1aWord(kFnvOffset, x);
}

std::uint64_t
KeyChooser::indexToKey(std::uint64_t i) const
{
    if (i < loaded_)
        return map_.lo(tid_) + i;
    return map_.insertKey(tid_, i - loaded_);
}

std::uint64_t
KeyChooser::next(Rng &rng)
{
    switch (dist_) {
      case KeyDist::Uniform:
        return indexToKey(rng.next(loaded_ + inserted_));
      case KeyDist::Zipfian: {
        const std::uint64_t rank = zipf_.next(rng);
        return indexToKey(scramble(rank) % loaded_);
      }
      case KeyDist::Latest: {
        // Recency rank 0 = newest element of the combined sequence
        // (loaded keys in order, then this thread's inserts).
        const std::uint64_t rank = zipf_.next(rng);
        return indexToKey(loaded_ + inserted_ - 1 - rank);
      }
    }
    panic("unreachable key distribution");
}

} // namespace whisper::workload
