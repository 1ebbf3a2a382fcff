/**
 * @file
 * The repo's two non-cryptographic hashes, in one place.
 *
 *  - mix64 is the splitmix64 finalizer (Steele, Lea & Flood): a full
 *    avalanche of x + the golden gamma. It seeds Rng streams, derives
 *    fuzz cases and schedules, places keys in hash tables and folds
 *    digests. splitmix64() is the generator step built on it.
 *  - FNV-1a (64-bit) hashes names and folds 8-byte words byte by byte;
 *    the workload digests and YCSB's key scrambling use it.
 *
 * Every golden digest in the test suite is a function of these
 * definitions: changing one re-pins them all.
 */

#ifndef WHISPER_COMMON_HASH_HH
#define WHISPER_COMMON_HASH_HH

#include <cstdint>
#include <string_view>

namespace whisper
{

/** splitmix64's increment (2^64 / golden ratio). */
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;
/** @{ splitmix64 finalizer multipliers. */
inline constexpr std::uint64_t kMixMul1 = 0xbf58476d1ce4e5b9ull;
inline constexpr std::uint64_t kMixMul2 = 0x94d049bb133111ebull;
/** @} */

/** splitmix64 finalizer of x + kGoldenGamma. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += kGoldenGamma;
    x = (x ^ (x >> 30)) * kMixMul1;
    x = (x ^ (x >> 27)) * kMixMul2;
    return x ^ (x >> 31);
}

/** Order-sensitive digest step: fold @p v into @p h. */
constexpr std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return mix64(h + v);
}

/** splitmix64 generator step: the next output of @p state. */
constexpr std::uint64_t
splitmix64(std::uint64_t &state)
{
    const std::uint64_t out = mix64(state);
    state += kGoldenGamma;
    return out;
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a: fold the 8 little-endian bytes of @p v into @p h. */
constexpr std::uint64_t
fnv1aWord(std::uint64_t h, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; b++)
        h = (h ^ ((v >> (b * 8)) & 0xff)) * kFnvPrime;
    return h;
}

/** FNV-1a of a byte string. */
constexpr std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = kFnvOffset;
    for (const char ch : s)
        h = (h ^ static_cast<std::uint8_t>(ch)) * kFnvPrime;
    return h;
}

} // namespace whisper

#endif // WHISPER_COMMON_HASH_HH
