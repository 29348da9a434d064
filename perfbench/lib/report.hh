/**
 * @file
 * Metric records and the result line every run prints last:
 *
 *   {"correct": true, "attempted": N, "failed": F,
 *    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
 *
 * Names and units follow a fixed grammar (validName/validUnit) so a
 * typo fails the run instead of silently creating a new series.
 */

#ifndef PERFBENCH_LIB_REPORT_HH
#define PERFBENCH_LIB_REPORT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** A name starts with a letter or digit and has at most 64 letters,
 *  digits, '_', '.' and '-'. */
bool validName(std::string_view name);

/** A unit has 1..16 letters, digits, '_', '/', '%', '.' and '-'. */
bool validUnit(std::string_view unit);

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric set; set() replaces an existing name. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const Metric *find(std::string_view name) const;
    const std::vector<Metric> &all() const { return metrics_; }
    /** Copy every metric of `other` not already present. */
    void addMissing(const Metrics &other);

  private:
    std::vector<Metric> metrics_;
};

/** Operation accounting shared by all workloads. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Human-readable reason per failure (first few kept). */
    std::vector<std::string> reasons;

    void ok(std::uint64_t n = 1) { attempted += n; }
    void fail(const std::string &why);
    void merge(const Tally &other);
    void check(bool cond, const std::string &why)
    {
        if (cond)
            ok();
        else
            fail(why);
    }
};

/** Shortest round-trip decimal form of v (all its digits). */
std::string formatNumber(double v);

/**
 * The final JSON line. Throws std::invalid_argument when a metric
 * name or unit breaks the grammar or a value is not finite.
 */
std::string resultLine(bool correct, const Tally &tally,
                       const Metrics &metrics);

} // namespace perfbench

#endif // PERFBENCH_LIB_REPORT_HH
