#include "common/crc32.hh"

#include <array>
#include <bit>
#include <cstring>

namespace whisper
{

namespace
{

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * tables[0] is the bytewise table; tables[k][b] is the CRC of byte b
 * followed by k zero bytes, so eight bytes fold in one step.
 */
constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; i++) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); k++) {
        for (std::uint32_t i = 0; i < 256; i++)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
    return t;
}

constexpr Tables kTables = makeTables();

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    crc ^= 0xFFFFFFFFu;
    // Slicing-by-8 reads each 8-byte block as a little-endian word.
    if constexpr (std::endian::native == std::endian::little) {
        for (; n >= 8; bytes += 8, n -= 8) {
            std::uint64_t w;
            std::memcpy(&w, bytes, 8);
            w ^= crc;
            crc = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
                  kTables[5][(w >> 16) & 0xFF] ^
                  kTables[4][(w >> 24) & 0xFF] ^
                  kTables[3][(w >> 32) & 0xFF] ^
                  kTables[2][(w >> 40) & 0xFF] ^
                  kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
        }
    }
    for (; n != 0; bytes++, n--)
        crc = kTables[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

} // namespace whisper
