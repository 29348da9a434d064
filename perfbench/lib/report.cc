#include "lib/report.hh"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench
{

namespace
{

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9');
}

} // namespace

bool
validName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    for (char c : name)
        if (!isAlnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit)
        if (!isAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.'
            && c != '-')
            return false;
    return true;
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

const Metric *
Metrics::find(std::string_view name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
Metrics::addMissing(const Metrics &other)
{
    for (const Metric &m : other.all())
        if (!find(m.name))
            metrics_.push_back(m);
}

void
Tally::fail(const std::string &why)
{
    ++attempted;
    ++failed;
    if (reasons.size() < 8)
        reasons.push_back(why);
}

void
Tally::merge(const Tally &other)
{
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string &r : other.reasons)
        if (reasons.size() < 8)
            reasons.push_back(r);
}

std::string
formatNumber(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
resultLine(bool correct, const Tally &tally, const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics.all()) {
        if (!validName(m.name))
            throw std::invalid_argument("bad metric name: " + m.name);
        if (!validUnit(m.unit))
            throw std::invalid_argument("bad unit for " + m.name + ": "
                                        + m.unit);
        if (!std::isfinite(m.value))
            throw std::invalid_argument("non-finite value for "
                                        + m.name);
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + formatNumber(m.value)
            + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
