/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code around calls
 * into the library's public functions (compile stages, simulation,
 * executor runs, fleet runs, ...), never from inside the library.
 * Each span has a name of the form "<layer>.<what>", host start and
 * end times, the span that was open when it began (its parent) and
 * an optional operation id. Calls too short and too frequent to
 * span one by one (millions of step-cost queries) are recorded as
 * an Aggregate instead: a count and a summed duration, attached to
 * the span open when the aggregate was created.
 *
 * A disabled recorder records nothing; every call is a branch on
 * one bool. Not thread-safe: spans open and close on the thread
 * that drives the workload (the fleet steps on one thread). Everything lives in memory until writeChromeTrace()
 * writes the Chrome trace-event JSON that Perfetto and
 * chrome://tracing open offline.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Host nanoseconds on the steady clock. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1; ///< index into spans(), -1 for a root
    int64_t id = -1;     ///< request/op id, -1 when none
};

/** Count and summed duration of many short calls at one boundary. */
struct Aggregate
{
    std::string name;
    int64_t parent = -1;
    int64_t count = 0;
    int64_t total_ns = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span under the innermost open span; returns its
     *  index (-1 when disabled). Spans must close in LIFO order. */
    int64_t begin(const std::string &name, int64_t id = -1);
    void end(int64_t span);

    /** A new aggregate under the innermost open span (nullptr when
     *  disabled). The pointer stays valid for the tracer's life. */
    Aggregate *aggregate(const std::string &name);

    /** Σ duration of closed spans named @p name, in seconds. */
    double totalSeconds(const std::string &name) const;

    /** Self time per layer (the name before the first '.'): each
     *  span's duration minus the part covered by its child spans
     *  and aggregates, summed by layer, in seconds. Aggregates
     *  count as self time of their own layer. With @p within, only
     *  spans and aggregates inside a span of that name count. */
    std::map<std::string, double>
    selfSecondsByLayer(const std::string &within = "") const;

    /** Write every span and aggregate as Chrome trace-event JSON;
     *  @p metadata lands under "otherData". Returns false when the
     *  file cannot be written. */
    bool writeChromeTrace(
        const std::string &path,
        const std::map<std::string, std::string> &metadata) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
    // Aggregates are handed out by pointer, so they live in a
    // vector of owning nodes that never relocates its elements.
    std::vector<std::unique_ptr<Aggregate>> aggregates_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name, int64_t id = -1)
        : tracer_(tracer), span_(tracer.begin(name, id))
    {}
    ~ScopedSpan() { tracer_.end(span_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int64_t span_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
