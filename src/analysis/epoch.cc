#include "analysis/epoch.hh"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace whisper::analysis
{

using trace::DataClass;
using trace::EventKind;
using trace::TraceEvent;

namespace
{

/** Sort @p lines and drop duplicates. */
void
sortUnique(std::vector<LineAddr> &lines)
{
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

/** Open-epoch line count below which duplicates are left unfolded. */
constexpr std::size_t kFoldMin = 64;

} // namespace

void
ThreadEpochs::push(Tick endTs, std::span<const LineAddr> lines)
{
    panic_if(lines_.size() + lines.size() >
                 std::numeric_limits<std::uint32_t>::max(),
             "thread %u stored more than 2^32 epoch lines", tid_);
    endTs_.push_back(endTs);
    lines_.insert(lines_.end(), lines.begin(), lines.end());
    lineEnd_.push_back(static_cast<std::uint32_t>(lines_.size()));
}

ThreadEpochAccumulator::ThreadEpochAccumulator(ThreadId tid,
                                               EpochObserver observer)
    : tid_(tid), observer_(std::move(observer)), epochs_(tid)
{
}

TxInfo &
ThreadEpochAccumulator::txInfo(TxId tx)
{
    auto it = txIndex_.find(tx);
    if (it == txIndex_.end()) {
        it = txIndex_.emplace(tx, txs_.size()).first;
        txs_.push_back({tx, tid_, 0, 0, 0, false});
    }
    return txs_[it->second];
}

void
ThreadEpochAccumulator::closeEpoch(const TraceEvent &fence)
{
    sortUnique(curLines_);
    stats_.addEpoch(curLines_.size(), cur_.storeBytes,
                    fence.fenceKind());
    if (cur_.tx != 0)
        txInfo(cur_.tx).epochs++;
    if (observer_) {
        Epoch ep;
        ep.tid = tid_;
        ep.index = epochs_.size();
        ep.startTs = cur_.startTs;
        ep.endTs = fence.ts;
        ep.tx = cur_.tx;
        ep.endKind = fence.fenceKind();
        ep.lines = curLines_;
        ep.storeCount = cur_.storeCount;
        ep.storeBytes = cur_.storeBytes;
        ep.ntStoreCount = cur_.ntStoreCount;
        observer_(ep);
    }
    epochs_.push(fence.ts, curLines_);
    open_ = false;
}

void
ThreadEpochAccumulator::add(const TraceEvent &ev)
{
    switch (ev.kind) {
      case EventKind::PmStore:
      case EventKind::PmNtStore: {
        if (!open_) {
            cur_ = OpenEpoch{ev.ts, curTx_};
            curLines_.clear();
            foldAt_ = kFoldMin;
            open_ = true;
        }
        const LineAddr first = lineOf(ev.addr);
        const LineAddr last =
            lineOf(ev.addr + (ev.size ? ev.size - 1 : 0));
        for (LineAddr line = first; line <= last; line++)
            curLines_.push_back(line);
        // Fold repeats once the list doubles past its last unique
        // size, so an epoch's scratch stays within twice its lines.
        if (curLines_.size() > foldAt_) {
            sortUnique(curLines_);
            foldAt_ = std::max(kFoldMin, 2 * curLines_.size());
        }
        cur_.storeCount++;
        cur_.storeBytes += ev.size;
        if (ev.kind == EventKind::PmNtStore)
            cur_.ntStoreCount++;
        if (curTx_ != 0) {
            TxInfo &info = txInfo(curTx_);
            if (ev.cls == DataClass::User)
                info.userBytes += ev.size;
            else
                info.metaBytes += ev.size;
        }
        break;
      }
      case EventKind::Fence:
        if (open_)
            closeEpoch(ev);
        break;
      case EventKind::TxBegin:
        curTx_ = ev.addr;
        txInfo(curTx_);
        break;
      case EventKind::TxEnd:
        curTx_ = 0;
        break;
      case EventKind::TxAbort:
        txInfo(ev.addr).aborted = true;
        curTx_ = 0;
        break;
      default:
        break;
    }
}

EpochOrder::EpochOrder(std::vector<ThreadEpochs> threads)
    : threads_(std::move(threads))
{
    // Ranking threads by (tid, recording order) makes the keys unique
    // and their plain sort the stable (end tick, tid) order.
    std::stable_sort(threads_.begin(), threads_.end(),
                     [](const ThreadEpochs &a, const ThreadEpochs &b) {
                         return a.tid() < b.tid();
                     });
    panic_if(threads_.size() > std::numeric_limits<std::uint32_t>::max(),
             "too many trace threads");
    std::size_t total = 0;
    for (const ThreadEpochs &t : threads_)
        total += t.size();
    order_.reserve(total);
    for (std::size_t t = 0; t < threads_.size(); t++) {
        // push() bounds a thread's lines, and so its epochs, by 2^32.
        for (std::size_t i = 0; i < threads_[t].size(); i++) {
            order_.push_back({threads_[t].endTs(i),
                              static_cast<std::uint32_t>(t),
                              static_cast<std::uint32_t>(i)});
        }
    }
    std::sort(order_.begin(), order_.end(),
              [](const Key &a, const Key &b) {
                  if (a.endTs != b.endTs)
                      return a.endTs < b.endTs;
                  if (a.thread != b.thread)
                      return a.thread < b.thread;
                  return a.index < b.index;
              });
}

ThreadId
EpochOrder::maxTid() const
{
    return threads_.empty() ? 0 : threads_.back().tid();
}

EpochBuilder::EpochBuilder(const trace::TraceSet &traces)
{
    std::vector<ThreadEpochs> threads;
    for (const auto &buf : traces.buffers()) {
        ThreadEpochAccumulator acc(
            buf->tid(), [&](const Epoch &ep) { epochs_.push_back(ep); });
        buf->forEachChunk(
            [&](const trace::TraceEvent *events, std::size_t n) {
                acc.addChunk(events, n);
            });
        threads.push_back(std::move(acc.epochs()));
        std::move(acc.transactions().begin(),
                  acc.transactions().end(), std::back_inserter(txs_));
    }
    order_ = EpochOrder(std::move(threads));
    // The same global order as order(): by end timestamp, then tid.
    std::stable_sort(epochs_.begin(), epochs_.end(),
                     [](const Epoch &a, const Epoch &b) {
                         if (a.endTs != b.endTs)
                             return a.endTs < b.endTs;
                         return a.tid < b.tid;
                     });
}

} // namespace whisper::analysis
