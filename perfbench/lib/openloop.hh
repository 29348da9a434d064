/**
 * @file
 * Open-loop latency accounting. Request i of a run at rate r is due
 * at start + i/r whether or not the system kept up, and its latency
 * is measured from that due time, not from when the generator got
 * round to sending it: a stall that delays later sends is charged to
 * every request it delayed. The generator's own lateness (sent - due)
 * is kept separately so a run whose generator fell behind can be
 * declared invalid instead of slow.
 */

#ifndef PERFBENCH_LIB_OPENLOOP_HH
#define PERFBENCH_LIB_OPENLOOP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** Due time, in seconds after the start, of request i at `rate`/s. */
inline double
dueSeconds(std::size_t i, double rate)
{
    return static_cast<double>(i) / rate;
}

/**
 * Per-request record of one open-loop run. Times are seconds since
 * the run's start on one steady clock.
 */
class LatencyBook
{
  public:
    explicit LatencyBook(std::size_t requests, double rate);

    double due(std::size_t i) const { return due_[i]; }

    void markSent(std::size_t i, double at);
    /** Record the answer to request i. Returns false (and counts an
     *  anomaly) for an answer to an unsent or already-answered
     *  request. */
    bool markDone(std::size_t i, double at);

    std::size_t answered() const { return answered_; }
    /** Every request was sent and answered exactly once. */
    bool exactlyOnce() const
    {
        return sent_ == due_.size() && answered_ == due_.size()
            && anomalies_ == 0;
    }

    /** done - due per answered request, milliseconds. */
    std::vector<double> latencyMs() const;
    /** sent - due per sent request, milliseconds. */
    std::vector<double> lagMs() const;
    /** Answer time of the last answered request minus the due time
     *  of the last request: how far behind the system finished. */
    double finishBehindMs() const;

    /** p99 latency and lag of the answered requests due in each of
     *  `count` equal slices of the schedule. A backlog that grows
     *  shows in every later window; a transient stall in a few. */
    struct Window
    {
        std::size_t answered = 0;
        double latencyP99Ms = 0.0;
        double lagP99Ms = 0.0;
    };
    std::vector<Window> windows(std::size_t count) const;

  private:
    std::vector<double> due_;
    std::vector<double> sentAt_;
    std::vector<double> doneAt_;
    std::size_t sent_ = 0;
    std::size_t answered_ = 0;
    std::size_t anomalies_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LIB_OPENLOOP_HH
