/**
 * @file
 * Spans recorded by the benchmark's own code around its calls into
 * each layer's public functions (the program itself is not
 * instrumented). A Span is a no-op unless a SpanLog is installed,
 * so the untraced runs that produce end-to-end numbers pay one
 * relaxed atomic load per call.
 *
 * Self time is computed per thread: a span's self time is its
 * duration minus the durations of the spans opened and closed inside
 * it on the same thread.
 */

#ifndef PERFBENCH_LIB_SPANS_HH
#define PERFBENCH_LIB_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** The program's layers, as named by its modules under src/. */
inline constexpr const char *kLayers[] = {
    "workload", "sim", "core", "baselines",
    "harness",  "cloud", "service", "check",
};

struct SpanRecord
{
    const char *layer = nullptr; ///< one of kLayers
    const char *name = nullptr;  ///< string literal: the call timed
    double startUs = 0.0;        ///< host µs since install()
    double durUs = 0.0;
    double selfUs = 0.0;
    std::uint64_t thread = 0;    ///< recorder-assigned thread number
};

class SpanLog
{
  public:
    SpanLog() = default;
    ~SpanLog();
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** The installed log, or nullptr (the Span gate). */
    static SpanLog *active()
    {
        return g_active.load(std::memory_order_relaxed);
    }

    void install();
    void uninstall();

    double nowUs() const;
    void push(const SpanRecord &rec);
    std::uint64_t threadNumber();

    std::vector<SpanRecord> records() const;
    /** Σ self time per layer, milliseconds (every layer listed). */
    std::map<std::string, double> selfMs() const;
    /** Chrome trace_event JSON via cash::trace::writeChromeTrace. */
    bool writeChrome(const std::string &path) const;

  private:
    static std::atomic<SpanLog *> g_active;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> records_;
    std::uint64_t nextThread_ = 0;
};

/** RAII span around one call into `layer`. */
class Span
{
  public:
    Span(const char *layer, const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
    const char *layer_;
    const char *name_;
    double start_ = 0.0;
    double childUs_ = 0.0;
    Span *parent_ = nullptr;
};

} // namespace perfbench

#endif // PERFBENCH_LIB_SPANS_HH
