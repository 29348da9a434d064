#include "lib/stats.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::optional<double>
tailPercentile(std::size_t samples)
{
    // Tenths of a percent, so the test is exact integer arithmetic:
    // samples beyond p = samples * (1000 - p10) / 1000 >= 10.
    for (unsigned p10 : {999u, 990u, 900u, 500u})
        if (samples * (1000 - p10) >= 10 * 1000)
            return p10 / 10.0;
    return std::nullopt;
}

bool
PieceTimes::add(const std::vector<double> &times)
{
    if (reps_ == 0) {
        pieces_ = times.size();
        times_.assign(pieces_ * kCapacity, 0.0f);
    } else if (times.size() != pieces_) {
        return false;
    }
    float *row = times_.data() + (reps_ % kCapacity) * pieces_;
    for (std::size_t i = 0; i < pieces_; ++i)
        row[i] = static_cast<float>(times[i]);
    ++reps_;
    return true;
}

std::vector<double>
PieceTimes::quantile(double q) const
{
    const std::size_t kept = std::min(reps_, kCapacity);
    std::vector<double> out(pieces_);
    std::vector<double> column(kept);
    for (std::size_t i = 0; i < pieces_; ++i) {
        for (std::size_t r = 0; r < kept; ++r)
            column[r] = times_[r * pieces_ + i];
        out[i] = perfbench::quantile(column, q);
    }
    return out;
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

Summary
summarize(const std::vector<double> &values)
{
    Summary s;
    s.samples = values.size();
    s.p50 = quantile(values, 0.50);
    s.p99 = quantile(values, 0.99);
    if (auto pct = tailPercentile(values.size())) {
        s.tailPct = *pct;
        s.tail = quantile(values, *pct / 100.0);
    }
    return s;
}

double
Ladder::rate(std::size_t i) const
{
    if (ratio > 1.10 || ratio <= 1.0)
        throw std::invalid_argument("ladder rungs must be >0% and "
                                    "<=10% apart");
    return base * std::pow(ratio, static_cast<double>(i));
}

} // namespace perfbench
