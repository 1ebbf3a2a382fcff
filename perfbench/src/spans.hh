/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The benchmark wraps every call it times into a WHISPER module in a
 * Span: name, start, end, parent span and a group id shared by the
 * spans of one op or one fuzz case. Spans are appended to a per-lane
 * vector (one lane per recording thread, so no locking) and written
 * out as one TSV file when the run ends. With tracing off a Span is
 * only a stopwatch: it reads the clock twice and records nothing, so
 * the untraced run pays for the timings it reports and nothing else.
 *
 * Span names are "<layer>.<call>"; the layer prefix (core, pm, trace,
 * alloc, txlib, apps, workload, fuzz, analysis, sim, bench) is what
 * run.py folds self times by.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (std::chrono::steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU seconds on @p clock: CLOCK_THREAD_CPUTIME_ID for the calling
 * thread, CLOCK_PROCESS_CPUTIME_ID for all threads of the process.
 * Unlike wall time, it leaves out stretches in which a shared machine
 * runs something else on the benchmark's cores.
 */
inline double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0: root
    std::uint64_t group = 0;  //!< op / case id; 0: none
    const char *name = "";    //!< static string
    std::int64_t start = 0;
    std::int64_t end = 0;
    unsigned lane = 0;
};

class Tracer
{
  public:
    /** @p lanes recording threads; lane 0 is the main thread. */
    Tracer(bool on, unsigned lanes);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_; }

    /**
     * Parent for spans opened on @p lane while its stack is empty —
     * how worker-thread spans hang under a span the main thread
     * holds open. 0 clears it.
     */
    void setLaneRoot(unsigned lane, std::uint64_t parent);

    /**
     * Write every span as TSV (id, parent, group, lane, name,
     * start_ns, end_ns; times relative to the tracer's creation).
     * Returns false on I/O failure.
     */
    bool write(const std::string &path) const;

  private:
    friend class Span;

    struct Open
    {
        std::uint64_t id;
        std::uint64_t group;
    };

    struct Lane
    {
        std::vector<SpanRecord> spans;
        std::vector<Open> stack;
        std::uint64_t root = 0;
    };

    bool on_;
    std::int64_t origin_;
    std::atomic<std::uint64_t> nextId_{1};
    std::vector<Lane> lanes_;
};

/**
 * One timed call. Opens on construction; close() (or the destructor)
 * ends it and, when tracing and @p record, records it under the
 * lane's innermost open span. @p group 0 inherits the parent's group;
 * kNewGroup makes the span's own id the group of everything nested in
 * it. @p record false keeps a sampled-out call a plain stopwatch.
 */
class Span
{
  public:
    static constexpr std::uint64_t kNewGroup = ~std::uint64_t(0);

    Span(Tracer &tracer, unsigned lane, const char *name,
         std::uint64_t group = 0, bool record = true);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent); returns its duration in ns. */
    std::int64_t close();

    /** Duration in seconds; closes the span. */
    double seconds() { return static_cast<double>(close()) * 1e-9; }

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    unsigned lane_;
    const char *name_;
    bool record_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t group_ = 0;
    std::int64_t start_;
    std::int64_t duration_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
