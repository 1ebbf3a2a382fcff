/**
 * @file
 * Typed persistent offsets.
 *
 * Persistent data structures must not embed virtual addresses: after a
 * crash and re-mount the pool may live elsewhere. POff<T> is a 64-bit
 * pool offset with a typed deref, the moral equivalent of NVML's
 * PMEMoid or Mnemosyne's persistent pointers.
 */

#ifndef WHISPER_PM_POFF_HH
#define WHISPER_PM_POFF_HH

#include "pm/pm_pool.hh"

namespace whisper::pm
{

/**
 * Offset of a T inside a PmPool.
 *
 * Trivially copyable; the null value is kNullAddr so that zero-filled
 * PM is *not* accidentally a valid pointer — freshly allocated
 * structures must set their links explicitly.
 */
template <typename T>
struct POff
{
    Addr off = kNullAddr;

    POff() = default;
    explicit POff(Addr o) : off(o) {}

    static POff null() { return POff(); }

    bool isNull() const { return off == kNullAddr; }
    explicit operator bool() const { return !isNull(); }

    bool operator==(const POff &other) const { return off == other.off; }
    bool operator!=(const POff &other) const { return off != other.off; }

    /** Deref against a pool's architectural image. */
    T *get(PmPool &pool) const { return pool.at<T>(off); }
    const T *get(const PmPool &pool) const { return pool.at<T>(off); }

    /** Deref against the durable image (recovery inspection). */
    const T *
    durable(const PmPool &pool) const
    {
        return pool.durableAt<T>(off);
    }

};

} // namespace whisper::pm

#endif // WHISPER_PM_POFF_HH
