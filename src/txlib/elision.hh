/**
 * @file
 * Elision policy for the txlib layers' redundant persistence work.
 *
 * The trace optimizer (analysis/optimize.hh) classifies flushes and
 * fences as redundant; this header names the subset of those findings
 * the runtime can act on safely. Each policy bit gates one origin
 * site whose elision has a layer-specific recovery argument
 * (DESIGN.md §11), proven by rerunning the crashfuzz and media-fault
 * sweeps with the bit set:
 *
 *  - kElideMneCommitApply — Mnemosyne applies its write set in one
 *    coalesced epoch (all stores, then deduped flushes, then a single
 *    durability fence) instead of a (store, flush, fence) epoch per
 *    staged write. Safe: the redo log and commit record are already
 *    durable when application starts, and replay is idempotent — a
 *    crash anywhere inside the apply re-applies the whole write set.
 *  - kElideNvmlClearLog — NVML retires its undo log in one epoch
 *    (all end-record stores, then flushes, then one fence) instead of
 *    a singleton epoch per record. Safe: the descriptor is already
 *    COMMITTED, and recover() clears logs and descriptors regardless
 *    of how many records a crash left un-retired.
 *  - kElideNvmlCommitFence — NVML skips the commit durability fence
 *    when the transaction modified no range (the fence pairs with the
 *    preceding one across an empty epoch — the optimizer's category
 *    (d)). Safe: with nothing staged there is nothing the fence could
 *    drain before the COMMITTED state write, which carries its own
 *    fence.
 *
 * What is deliberately NOT elidable: log-append ordering fences (a
 * record must be durable before the data it protects changes) and the
 * data-durable-before-COMMITTED fence in a non-empty NVML commit
 * (eliding it could mark torn data committed). The optimizer reports
 * those sites with an empty policy name.
 *
 * The policy belongs to a run, not the process: it is fixed when the
 * Runtime is built (core::AppConfig::elision, which
 * fuzz::FuzzConfig::elide maps onto) and every PmContext carries it,
 * so two runs in one process cannot change each other's schedule.
 */

#ifndef WHISPER_TXLIB_ELISION_HH
#define WHISPER_TXLIB_ELISION_HH

#include <cstdint>

#include "pm/pm_context.hh"

namespace whisper::txlib
{

/** Bitmask of elision sites. */
using ElisionPolicy = std::uint32_t;

enum : ElisionPolicy
{
    kElideNone = 0,
    /** Mnemosyne: coalesce the commit-time write-set application. */
    kElideMneCommitApply = 1u << 0,
    /** NVML: batch the per-record undo-log clears into one epoch. */
    kElideNvmlClearLog = 1u << 1,
    /** NVML: drop the commit durability fence of empty write sets. */
    kElideNvmlCommitFence = 1u << 2,
    /** Every proven-safe elision. */
    kElideAll = kElideMneCommitApply | kElideNvmlClearLog |
                kElideNvmlCommitFence,
};

/** True when every bit of @p bits is enabled on @p ctx. */
inline bool
elisionEnabled(const pm::PmContext &ctx, ElisionPolicy bits)
{
    return (ctx.elisionPolicy() & bits) == bits;
}

} // namespace whisper::txlib

#endif // WHISPER_TXLIB_ELISION_HH
