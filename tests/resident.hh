/**
 * @file
 * Resident set size of the test process, for tests that check a
 * structure's memory follows what it holds.
 */

#ifndef WHISPER_TESTS_RESIDENT_HH
#define WHISPER_TESTS_RESIDENT_HH

#include <cstddef>
#include <cstdio>

namespace whisper
{

/** Resident set size of this process, in bytes (Linux /proc). */
inline std::size_t
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char row[256];
    std::size_t kb = 0;
    while (std::fgets(row, sizeof(row), f)) {
        if (std::sscanf(row, "VmRSS: %zu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb * 1024;
}

} // namespace whisper

#endif // WHISPER_TESTS_RESIDENT_HH
