#include "lib/spans.hh"

#include <fstream>
#include <stdexcept>

#include "trace/export.hh"

namespace perfbench
{

std::atomic<SpanLog *> SpanLog::g_active{nullptr};

namespace
{
thread_local Span *t_open = nullptr;
thread_local SpanLog *t_log = nullptr;
thread_local std::uint64_t t_thread = 0;
} // namespace

SpanLog::~SpanLog()
{
    uninstall();
}

void
SpanLog::install()
{
    SpanLog *expected = nullptr;
    epoch_ = std::chrono::steady_clock::now();
    if (!g_active.compare_exchange_strong(expected, this))
        throw std::logic_error("a SpanLog is already installed");
}

void
SpanLog::uninstall()
{
    SpanLog *self = this;
    g_active.compare_exchange_strong(self, nullptr);
}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::uint64_t
SpanLog::threadNumber()
{
    if (t_log != this) {
        std::lock_guard<std::mutex> lock(mutex_);
        t_log = this;
        t_thread = nextThread_++;
    }
    return t_thread;
}

void
SpanLog::push(const SpanRecord &rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(rec);
}

std::vector<SpanRecord>
SpanLog::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

std::map<std::string, double>
SpanLog::selfMs() const
{
    std::map<std::string, double> out;
    for (const char *layer : kLayers)
        out[layer] = 0.0;
    for (const SpanRecord &r : records())
        out[r.layer] += r.selfUs * 1e-3;
    return out;
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::vector<cash::trace::TraceEvent> events;
    std::map<std::uint64_t, std::string> tracks;
    for (const SpanRecord &r : records()) {
        cash::trace::TraceEvent ev;
        ev.name = r.name;
        ev.cat = cash::trace::Category::Engine; // host-time span
        ev.kind = cash::trace::EventKind::Complete;
        ev.track = r.thread;
        ev.ts = r.startUs;
        ev.dur = r.durUs;
        ev.numArgs = 1;
        ev.argKey[0] = "self_us";
        ev.argVal[0] = r.selfUs;
        events.push_back(ev);
        tracks[r.thread] = "bench thread " + std::to_string(r.thread);
    }
    std::ofstream out(path);
    if (!out)
        return false;
    cash::trace::writeChromeTrace(out, events, tracks);
    return static_cast<bool>(out);
}

Span::Span(const char *layer, const char *name)
    : log_(SpanLog::active()), layer_(layer), name_(name)
{
    if (!log_)
        return;
    parent_ = t_open;
    t_open = this;
    start_ = log_->nowUs();
}

Span::~Span()
{
    if (!log_)
        return;
    double dur = log_->nowUs() - start_;
    t_open = parent_;
    if (parent_)
        parent_->childUs_ += dur;
    log_->push({layer_, name_, start_, dur, dur - childUs_,
                log_->threadNumber()});
}

} // namespace perfbench
