/**
 * @file
 * CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
 * ranges — the media-fault detection code protecting every access
 * layer's critical metadata (DESIGN.md §9).
 *
 * Unlike the XOR-rotate fold it replaced, CRC32 detects all single-
 * and double-bit errors, any odd number of bit errors and every burst
 * up to 32 bits — the error classes a torn 8-byte word or a scrubbed
 * (zero-filled) region of a record produces. Record checksums are
 * computed over the record header with its checksum field zeroed,
 * extended over the payload, so header corruption is caught too.
 *
 * Computed by slicing-by-8: eight lookup tables fold eight bytes per
 * step, and only a tail under eight bytes goes bytewise. The values
 * are those of the bytewise algorithm (Crc32.MatchesBytewiseReference).
 */

#ifndef WHISPER_COMMON_CRC32_HH
#define WHISPER_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace whisper
{

/** Incremental CRC32 update: feed ranges in order, seed with 0. */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t n);

/** One-shot CRC32 of [data, data+n). */
inline std::uint32_t
crc32(const void *data, std::size_t n)
{
    return crc32Update(0, data, n);
}

} // namespace whisper

#endif // WHISPER_COMMON_CRC32_HH
