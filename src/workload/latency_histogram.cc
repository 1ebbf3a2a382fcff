#include "workload/latency_histogram.hh"

#include <cmath>

#include "common/hash.hh"

namespace whisper::workload
{

Tick
LatencyHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank = ceil(q * count) computed exactly in integers: write the
    // double q as M / 2^shift (M and shift from frexp, both exact),
    // so rank = ceil(M * count / 2^shift). The product fits 128 bits
    // (M < 2^53, count < 2^64) and q == 1.0 yields exactly count at
    // any count — double-precision ceil is off once counts pass 2^53.
    int exp = 0;
    const double frac = std::frexp(q, &exp); // q = frac * 2^exp
    const auto mant = static_cast<unsigned __int128>(
        std::ldexp(frac, 53)); // exact: frac has <= 53 mantissa bits
    const int shift = 53 - exp;
    const unsigned __int128 prod = mant * count_;
    std::uint64_t rank;
    if (shift >= 128) // tiny q: value < 2^-11, ceil is 0 or 1
        rank = prod != 0 ? 1 : 0;
    else
        rank = static_cast<std::uint64_t>(
            (prod >> shift) +
            ((prod & ((static_cast<unsigned __int128>(1) << shift) - 1))
                 ? 1
                 : 0));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; i++) {
        seen += counts_[i];
        if (seen >= rank)
            return bucketLowerBound(i);
    }
    return bucketLowerBound(kBuckets - 1);
}

std::uint64_t
LatencyHistogram::digest() const
{
    std::uint64_t h = kFnvOffset;
    auto mix = [&h](std::uint64_t v) { h = fnv1aWord(h, v); };
    mix(count_);
    mix(sum_);
    mix(minValue());
    mix(maxValue());
    for (unsigned i = 0; i < kBuckets; i++) {
        if (counts_[i] == 0)
            continue;
        mix(i);
        mix(counts_[i]);
    }
    return h;
}

} // namespace whisper::workload
