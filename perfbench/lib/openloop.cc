#include "lib/openloop.hh"

#include <algorithm>

#include "lib/stats.hh"

namespace perfbench
{

namespace
{
constexpr double kUnset = -1.0;
}

LatencyBook::LatencyBook(std::size_t requests, double rate)
    : due_(requests), sentAt_(requests, kUnset),
      doneAt_(requests, kUnset)
{
    for (std::size_t i = 0; i < requests; ++i)
        due_[i] = dueSeconds(i, rate);
}

void
LatencyBook::markSent(std::size_t i, double at)
{
    if (i >= due_.size() || sentAt_[i] != kUnset) {
        ++anomalies_;
        return;
    }
    sentAt_[i] = at;
    ++sent_;
}

bool
LatencyBook::markDone(std::size_t i, double at)
{
    if (i >= due_.size() || sentAt_[i] == kUnset
        || doneAt_[i] != kUnset) {
        ++anomalies_;
        return false;
    }
    doneAt_[i] = at;
    ++answered_;
    return true;
}

std::vector<double>
LatencyBook::latencyMs() const
{
    std::vector<double> out;
    out.reserve(answered_);
    for (std::size_t i = 0; i < due_.size(); ++i)
        if (doneAt_[i] != kUnset)
            out.push_back((doneAt_[i] - due_[i]) * 1e3);
    return out;
}

std::vector<double>
LatencyBook::lagMs() const
{
    std::vector<double> out;
    out.reserve(sent_);
    for (std::size_t i = 0; i < due_.size(); ++i)
        if (sentAt_[i] != kUnset)
            out.push_back(std::max(0.0, sentAt_[i] - due_[i]) * 1e3);
    return out;
}

double
LatencyBook::finishBehindMs() const
{
    if (due_.empty())
        return 0.0;
    double last = 0.0;
    for (double d : doneAt_)
        last = std::max(last, d);
    return (last - due_.back()) * 1e3;
}

std::vector<LatencyBook::Window>
LatencyBook::windows(std::size_t count) const
{
    std::vector<std::vector<double>> lat(count), lag(count);
    const double span = due_.empty() ? 0.0 : due_.back();
    for (std::size_t i = 0; i < due_.size(); ++i) {
        if (doneAt_[i] == kUnset)
            continue;
        std::size_t w = span > 0
            ? std::min(count - 1,
                       static_cast<std::size_t>(due_[i] / span
                                                * static_cast<double>(count)))
            : 0;
        lat[w].push_back((doneAt_[i] - due_[i]) * 1e3);
        lag[w].push_back(std::max(0.0, sentAt_[i] - due_[i]) * 1e3);
    }
    std::vector<Window> out(count);
    for (std::size_t w = 0; w < count; ++w) {
        out[w].answered = lat[w].size();
        out[w].latencyP99Ms = quantile(lat[w], 0.99);
        out[w].lagP99Ms = quantile(lag[w], 0.99);
    }
    return out;
}

} // namespace perfbench
