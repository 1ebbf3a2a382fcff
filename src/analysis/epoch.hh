/**
 * @file
 * Epoch reconstruction from traces.
 *
 * An epoch is the set of PM stores (cacheable or non-temporal) a
 * thread performs between two sfence instructions; flush operations
 * are ignored, exactly as in the paper's §5.1 methodology. Epochs are
 * attributed to the durable transaction that was open when the
 * epoch's first store executed.
 *
 * Reconstruction is a per-thread streaming computation:
 * ThreadEpochAccumulator consumes one thread's events in program
 * order — from an in-memory TraceBuffer or chunk-by-chunk from a
 * trace file — and different threads' accumulators are independent,
 * which is what lets the parallel pipeline (pipeline.hh) fan them out
 * across cores and still join into the exact sequential result.
 *
 * At each closing fence the accumulator folds the epoch into its
 * statistics and keeps only what the dependency pass needs: the end
 * tick and the epoch's lines, in one flat per-thread array
 * (ThreadEpochs, 12 bytes per epoch plus 8 per line). A full Epoch
 * value is built only for an optional observer, which EpochBuilder —
 * the reference the tests compare against — installs.
 */

#ifndef WHISPER_ANALYSIS_EPOCH_HH
#define WHISPER_ANALYSIS_EPOCH_HH

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/epoch_stats.hh"
#include "trace/trace_set.hh"

namespace whisper::analysis
{

/** One reconstructed epoch. */
struct Epoch
{
    ThreadId tid = 0;
    std::uint64_t index = 0;       //!< per-thread sequence number
    Tick startTs = 0;              //!< first store
    Tick endTs = 0;                //!< closing fence
    TxId tx = 0;                   //!< 0 when outside any transaction
    trace::FenceKind endKind =
        trace::FenceKind::Ordering; //!< ordering vs durability fence
    std::vector<LineAddr> lines;   //!< unique 64B lines, sorted
    std::uint64_t storeCount = 0;
    std::uint64_t storeBytes = 0;
    std::uint64_t ntStoreCount = 0;

    /** Epoch size as defined by the paper: unique lines stored. */
    std::uint64_t size() const { return lines.size(); }

    bool isSingleton() const { return lines.size() == 1; }
};

/** Per-transaction footprint reconstructed alongside epochs. */
struct TxInfo
{
    TxId tx;
    ThreadId tid;
    std::uint64_t epochs = 0;      //!< ordering points in the tx
    std::uint64_t userBytes = 0;   //!< DataClass::User stores
    std::uint64_t metaBytes = 0;   //!< everything else
    bool aborted = false;
};

/**
 * One thread's closed epochs, compactly: each epoch's end tick and
 * its sorted unique lines, the lines of all epochs back to back in
 * one array.
 */
class ThreadEpochs
{
  public:
    explicit ThreadEpochs(ThreadId tid = 0) : tid_(tid) {}

    ThreadId tid() const { return tid_; }

    std::size_t size() const { return endTs_.size(); }

    /** Closing-fence tick of epoch @p i (per-thread program order). */
    Tick endTs(std::size_t i) const { return endTs_[i]; }

    /** Sorted unique lines of epoch @p i. */
    std::span<const LineAddr>
    lines(std::size_t i) const
    {
        const std::size_t begin = i ? lineEnd_[i - 1] : 0;
        return {lines_.data() + begin, lineEnd_[i] - begin};
    }

    /** Append a closed epoch ending at @p endTs over @p lines. */
    void push(Tick endTs, std::span<const LineAddr> lines);

  private:
    ThreadId tid_;
    std::vector<Tick> endTs_;
    std::vector<std::uint32_t> lineEnd_; //!< exclusive end in lines_
    std::vector<LineAddr> lines_;
};

/**
 * Streaming epoch reconstruction for ONE thread.
 *
 * Feed the thread's events in program order via add()/addChunk();
 * the results are complete once the stream ends (a trailing open
 * epoch — stores never fenced — is not counted, it was never
 * ordered). The result is a pure function of the event sequence, so
 * accumulators for different threads can run on different cores.
 */
class ThreadEpochAccumulator
{
  public:
    /** Called with every epoch as its closing fence is consumed. */
    using EpochObserver = std::function<void(const Epoch &)>;

    explicit ThreadEpochAccumulator(ThreadId tid,
                                    EpochObserver observer = {});

    /** Consume the next event of this thread, in program order. */
    void add(const trace::TraceEvent &ev);

    /** Consume a contiguous chunk of events, in program order. */
    void
    addChunk(const trace::TraceEvent *events, std::size_t count)
    {
        for (std::size_t i = 0; i < count; i++)
            add(events[i]);
    }

    ThreadId tid() const { return tid_; }

    /** Closed epochs so far, in per-thread program order. */
    ThreadEpochs &epochs() { return epochs_; }
    const ThreadEpochs &epochs() const { return epochs_; }

    /** Statistics of the closed epochs (transactions not folded). */
    const EpochStatsAccumulator &stats() const { return stats_; }

    /** Transactions seen so far, in first-touch order. */
    std::vector<TxInfo> &transactions() { return txs_; }
    const std::vector<TxInfo> &transactions() const { return txs_; }

  private:
    TxInfo &txInfo(TxId tx);
    void closeEpoch(const trace::TraceEvent &fence);

    /** The epoch between its first store and its closing fence. */
    struct OpenEpoch
    {
        Tick startTs = 0;
        TxId tx = 0;
        std::uint64_t storeCount = 0;
        std::uint64_t storeBytes = 0;
        std::uint64_t ntStoreCount = 0;
    };

    ThreadId tid_;
    EpochObserver observer_;
    OpenEpoch cur_;
    bool open_ = false;
    /** The open epoch's stored lines; duplicates folded lazily. */
    std::vector<LineAddr> curLines_;
    std::size_t foldAt_ = 0;
    TxId curTx_ = 0;
    std::unordered_map<TxId, std::size_t> txIndex_;
    ThreadEpochs epochs_;
    EpochStatsAccumulator stats_;
    std::vector<TxInfo> txs_;
};

/**
 * Every thread's closed epochs in the global order the dependency
 * pass walks: by end tick, ties broken by tid, then by recording
 * order — what a stable sort by (end tick, tid) of the threads'
 * epochs concatenated in recording order gives. Sorted as 16-byte
 * keys; the epochs themselves stay in their threads' arrays.
 */
class EpochOrder
{
  public:
    EpochOrder() = default;

    /** Order @p threads, given in recording order. */
    explicit EpochOrder(std::vector<ThreadEpochs> threads);

    std::size_t size() const { return order_.size(); }

    /** The @p i-th epoch's thread id, end tick and lines. */
    ThreadId tid(std::size_t i) const
    {
        return threads_[order_[i].thread].tid();
    }
    Tick endTs(std::size_t i) const { return order_[i].endTs; }
    std::span<const LineAddr>
    lines(std::size_t i) const
    {
        return threads_[order_[i].thread].lines(order_[i].index);
    }

    /** Largest thread id of any thread (0 when there is none). */
    ThreadId maxTid() const;

  private:
    struct Key
    {
        Tick endTs;
        std::uint32_t thread; //!< into threads_, sorted by tid
        std::uint32_t index;  //!< epoch within its thread
    };

    std::vector<ThreadEpochs> threads_;
    std::vector<Key> order_;
};

/**
 * Reference reconstruction of a whole TraceSet, with every epoch
 * materialized: epochs() lists them in the global order (end
 * timestamp, ties broken by tid), and order() is the compact form of
 * the same epochs that the dependency analysis scans.
 */
class EpochBuilder
{
  public:
    explicit EpochBuilder(const trace::TraceSet &traces);

    const std::vector<Epoch> &epochs() const { return epochs_; }
    const std::vector<TxInfo> &transactions() const { return txs_; }
    const EpochOrder &order() const { return order_; }

    std::uint64_t epochCount() const { return epochs_.size(); }

  private:
    std::vector<Epoch> epochs_;
    std::vector<TxInfo> txs_;
    EpochOrder order_;
};

} // namespace whisper::analysis

#endif // WHISPER_ANALYSIS_EPOCH_HH
