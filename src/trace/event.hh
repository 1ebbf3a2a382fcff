/**
 * @file
 * Trace-event model for the WHISPER instrumentation framework.
 *
 * The paper's PM_* macros emit a record for every PM update, flush,
 * fence and transaction boundary (their Figure 2); this header defines
 * the equivalent in-memory record. Volatile (DRAM) accesses are also
 * representable so that the PM/DRAM access mix (their Figure 6) and
 * the timing simulation (their Figure 10) work from the same traces.
 */

#ifndef WHISPER_TRACE_EVENT_HH
#define WHISPER_TRACE_EVENT_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace whisper::trace
{

/** What happened. */
enum class EventKind : std::uint8_t
{
    PmStore,    //!< cacheable store to PM
    PmNtStore,  //!< non-temporal (cache-bypassing) store to PM
    PmLoad,     //!< load from PM
    PmFlush,    //!< clwb/clflushopt of one PM line
    Fence,      //!< sfence (aux = FenceKind)
    TxBegin,    //!< durable-transaction begin (addr = tx id)
    TxEnd,      //!< durable-transaction commit (addr = tx id)
    TxAbort,    //!< durable-transaction abort (addr = tx id)
    DramLoad,   //!< load from volatile memory
    DramStore,  //!< store to volatile memory
};

/**
 * Why the bytes were written. The paper's write-amplification and
 * small-epoch analyses attribute writes to user data vs recovery
 * metadata (logs, allocator state, transaction descriptors).
 */
enum class DataClass : std::uint8_t
{
    User,       //!< application payload
    Log,        //!< undo/redo log entries and log descriptors
    AllocMeta,  //!< persistent allocator state
    TxMeta,     //!< transaction/journal descriptors
    FsMeta,     //!< filesystem metadata (inodes, B-tree nodes)
    None,       //!< not a write (loads, fences)
};

/** Number of data classes (None ends the enum). */
inline constexpr std::size_t kDataClassCount =
    static_cast<std::size_t>(DataClass::None) + 1;

/** Flavour of an sfence, as classified by the instrumentation. */
enum class FenceKind : std::uint8_t
{
    Ordering,    //!< intra-transaction ordering point (HOPS ofence)
    Durability,  //!< commit/durability point (HOPS dfence)
};

/**
 * Which instrumented code site emitted an event. The txlib layers tag
 * their log-management and commit paths so the fence/flush optimizer
 * can key its per-site elision suggestions to something a human (or an
 * ElisionPolicy bit) can act on. Application code and traces recorded
 * before this field existed carry None — the byte holding it was
 * always written as zero.
 */
enum class Origin : std::uint8_t
{
    None,            //!< application code or legacy trace
    MneLogAppend,    //!< mnemosyne: redo-record append epoch
    MneCellPublish,  //!< mnemosyne: active-cell publish at tx begin
    MneCommitApply,  //!< mnemosyne: write-set application at commit
    MneTruncate,     //!< mnemosyne: log retirement (cell clear)
    MneRecovery,     //!< mnemosyne: redo replay during recover()
    NvmlUndoAppend,  //!< nvml: undo-record append epoch
    NvmlTxState,     //!< nvml: descriptor state transition
    NvmlCommitFlush, //!< nvml: modified-range flushes at commit
    NvmlClearLog,    //!< nvml: per-record log clear epochs
    NvmlRecovery,    //!< nvml: rollback during recover()
    HaloSegOpen,     //!< halo: advisory segment-header write at open
    HaloAppend,      //!< halo: record header/payload stores + clwb
    HaloSeal,        //!< halo: batched durability fence (seal)
    kCount,          //!< number of origins (array sizing)
};

/** Number of distinct trace origins. */
inline constexpr std::size_t kOriginCount =
    static_cast<std::size_t>(Origin::kCount);

/**
 * One instrumented operation. 24 bytes, trivially copyable; the owning
 * thread is implied by the buffer the event sits in.
 */
struct TraceEvent
{
    Tick ts;            //!< logical timestamp (the emitting context's clock)
    Addr addr;          //!< pool offset, or tx id for Tx* events
    std::uint32_t size; //!< bytes touched (0 for fences)
    EventKind kind;
    DataClass cls;
    std::uint8_t aux;   //!< FenceKind for Fence events
    std::uint8_t origin = 0; //!< Origin of the emitting code site

    FenceKind
    fenceKind() const
    {
        return static_cast<FenceKind>(aux);
    }
};

static_assert(sizeof(TraceEvent) == 24, "TraceEvent layout drifted");

/** Human-readable name of an event kind (debugging, dumps). */
const char *eventKindName(EventKind kind);

/** Human-readable name of a data class. */
const char *dataClassName(DataClass cls);

/** Human-readable name of a trace origin. */
const char *originName(Origin origin);

} // namespace whisper::trace

#endif // WHISPER_TRACE_EVENT_HH
