/**
 * @file
 * Deterministic random-number generation for workloads and crash tests.
 *
 * A small xoshiro256** engine keeps every experiment reproducible from
 * a single seed, independent of the standard library implementation.
 * ZipfianGenerator reproduces the skewed key popularity of YCSB.
 */

#ifndef WHISPER_COMMON_RNG_HH
#define WHISPER_COMMON_RNG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hh"

namespace whisper
{

/**
 * xoshiro256** 1.0 pseudo-random generator (Blackman & Vigna).
 *
 * Seeded through splitmix64 so that nearby seeds give unrelated
 * streams. Satisfies UniformRandomBitGenerator.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = kGoldenGamma);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t next(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial that succeeds with probability @p p. */
    bool chance(double p);

    /** Random printable-ASCII string of exactly @p len bytes. */
    std::string nextString(std::size_t len);

    /** Fork an independent stream (for per-thread generators). */
    Rng split();

  private:
    std::uint64_t s[4];
};

/**
 * Zipfian key-popularity generator over [0, n), YCSB-style.
 *
 * Uses the Gray et al. rejection-free method; theta defaults to the
 * YCSB constant 0.99.
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Draw one key; hot keys are the small indices. */
    std::uint64_t next(Rng &rng) const;

    std::uint64_t itemCount() const { return n_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;

    static double zeta(std::uint64_t n, double theta);
};

/**
 * Counter with a random starting point: generates each value in
 * [0, n) exactly once, in a scrambled order (for loads).
 *
 * The visit order is a true bijection for every domain size: a keyed
 * mix (odd multiply, xor-shift, add — each invertible modulo the next
 * power of two above @p n) is cycle-walked until it lands inside
 * [0, n). Since [0, n) covers at least half of the walked domain, the
 * walk takes two steps in expectation and always terminates (the
 * cycle containing a start below @p n re-enters [0, n) at the start
 * itself, at the latest).
 */
class ScrambledSequence
{
  public:
    ScrambledSequence(std::uint64_t n, Rng &rng);

    /** i-th element of the permutation; @p i must be below n. */
    std::uint64_t at(std::uint64_t i) const;

  private:
    std::uint64_t permute(std::uint64_t x) const;

    std::uint64_t n_;
    std::uint64_t mask_;
    std::uint64_t mult_;
    std::uint64_t add_;
    unsigned bits_;
};

} // namespace whisper

#endif // WHISPER_COMMON_RNG_HH
