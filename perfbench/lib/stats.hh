/**
 * @file
 * Summary statistics for the benchmark: medians, quantiles, the tail
 * percentile rule, and the geometric rate ladder the serving
 * workload bisects over.
 */

#ifndef PERFBENCH_LIB_STATS_HH
#define PERFBENCH_LIB_STATS_HH

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench
{

/** Linear-interpolation quantile (q in [0,1]) of unsorted values;
 *  0 for an empty input. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * The tail percentile rule: the highest of 50, 90, 99 and 99.9 that
 * has at least ten of `samples` beyond it, or nullopt when even the
 * median has fewer than ten beyond it. Reports must name the
 * percentile and the sample count next to the value.
 */
std::optional<double> tailPercentile(std::size_t samples);

/**
 * The times of each piece of work over repetitions of one fixed
 * sequence of pieces (the steps of a fleet, the requests of a log,
 * the cells of an engine run), summarized per piece by a quantile.
 *
 * On a shared host, neighbours on the shared caches slow pieces for
 * stretches of seconds, and the host's speed drifts over minutes.
 * For a piece of milliseconds repeated a few times, its median passes
 * over the stretches and averages the drift, where its fastest time,
 * an extreme of a few samples, would follow the drift's lucky
 * moments. A piece of microseconds is repeated dozens of times and
 * most repetitions are disturbed; its fastest time is the steady
 * figure. Either way a slowdown that hits every repetition of a piece
 * shows in full.
 *
 * The times of the last kCapacity repetitions are kept, in storage
 * allocated and written in full on the first add(), so the memory it
 * holds does not grow with the repetition count.
 */
class PieceTimes
{
  public:
    /** About the 60-130 replays a 30 s serve-control run makes; past
     *  it the oldest repetitions are dropped. */
    static constexpr std::size_t kCapacity = 128;

    /** Fold in one repetition's times, piece by piece. Returns false,
     *  and changes nothing, when the piece count differs from the
     *  earlier repetitions'. */
    bool add(const std::vector<double> &times);

    /** Each piece's q-quantile over the kept repetitions (0: its
     *  fastest time, 0.5: its median), in piece order; empty before
     *  the first add(). */
    std::vector<double> quantile(double q) const;
    std::size_t repetitions() const { return reps_; }

  private:
    std::size_t pieces_ = 0;
    std::size_t reps_ = 0;
    /** Repetition r's times at [(r % kCapacity) * pieces_, ...). */
    std::vector<float> times_;
};

/** Sum of `values`. */
double sum(const std::vector<double> &values);

/** One latency (or duration) distribution, summarized. */
struct Summary
{
    std::size_t samples = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    /** Value at tailPct (the percentile rule), 0 if none applies. */
    double tail = 0.0;
    double tailPct = 0.0;
};

Summary summarize(const std::vector<double> &values);

/**
 * A fixed geometric ladder of offered rates: rung i is
 * base * ratio^i. The ratio must be at most 1.10 so neighbouring
 * rungs are no more than 10% apart.
 */
struct Ladder
{
    double base = 0.0;
    double ratio = 1.0;
    std::size_t rungs = 0;

    double rate(std::size_t i) const;
};

/**
 * Bisection for the highest passing rung of a ladder whose pass/fail
 * outcome is monotone (every rung below a passing rung passes).
 * `pass(i)` is called O(log n) times. Returns nullopt when rung 0
 * fails.
 */
template <typename Pass>
std::optional<std::size_t>
bisectLadder(std::size_t rungs, Pass &&pass)
{
    // Invariant: every rung < lo passes, every rung >= hi fails.
    std::size_t lo = 0;
    std::size_t hi = rungs;
    while (lo < hi) {
        std::size_t mid = lo + (hi - lo) / 2;
        if (pass(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == 0)
        return std::nullopt;
    return lo - 1;
}

} // namespace perfbench

#endif // PERFBENCH_LIB_STATS_HH
