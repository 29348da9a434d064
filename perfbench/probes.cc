/**
 * @file
 * Standalone probes of the workload and sim layers, timed from
 * outside through their public functions:
 *
 *  - workload.next_ns / workload.skip_ns: InstSource::next() and
 *    InstSource::skip() pulled directly from every app's makeSource();
 *  - sim.ns_per_inst: VirtualCore::runUntil() fed by a bench-owned
 *    source that replays pre-generated ops, so instruction generation
 *    is excluded; sim.gen_share is 1 - replay time / live time for
 *    the same ops (the live run generates them as it goes);
 *  - sim.reconfig_us: SSim::command() over a fixed resize schedule;
 *  - core.decide_us: one runtime decision, SpeedupLearner::update()
 *    then TwoConfigOptimizer::solve() over the 64-config space, on a
 *    seeded stream of QoS readings and speedup demands.
 */

#include <algorithm>
#include <memory>

#include "common/rng.hh"
#include "core/optimizer.hh"
#include "core/qlearn.hh"
#include "lib/spans.hh"
#include "lib/stats.hh"
#include "sim/ssim.hh"
#include "workload/apps.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

/** Replays a fixed op vector; commits are ignored. */
class ReplaySource : public cash::InstSource
{
  public:
    explicit ReplaySource(const std::vector<cash::MicroOp> &ops)
        : ops_(ops)
    {}

    cash::FetchResult next(cash::Cycle) override
    {
        cash::FetchResult r;
        if (pos_ == ops_.size())
            return r; // Finished
        r.kind = cash::FetchResult::Kind::Inst;
        r.op = ops_[pos_++];
        return r;
    }
    void onCommit(const cash::MicroOp &, cash::Cycle) override {}

  private:
    const std::vector<cash::MicroOp> &ops_;
    std::size_t pos_ = 0;
};

/** Host ns per next() over `count` pulls from every app's source. */
double
probeNext(std::uint64_t seed, std::size_t count, Tally &tally)
{
    double total = 0.0;
    std::size_t pulled = 0;
    for (const cash::AppModel &app : cash::allApps()) {
        auto src = cash::makeSource(app, subSeed(seed, 0x6e78));
        cash::Cycle now = 0;
        std::size_t got = 0;
        double t0 = nowSeconds();
        {
            Span span("workload", "InstSource::next");
            for (std::size_t i = 0; i < 4 * count && got < count; ++i) {
                cash::FetchResult r = src->next(now);
                if (r.kind == cash::FetchResult::Kind::Finished)
                    break;
                if (r.kind == cash::FetchResult::Kind::IdleUntil) {
                    now = std::max(now + 1, r.idleUntil);
                    continue;
                }
                ++now;
                src->onCommit(r.op, now);
                ++got;
            }
        }
        total += nowSeconds() - t0;
        pulled += got;
        tally.check(got == count, "next() probe starved on " + app.name);
    }
    return pulled ? total * 1e9 / static_cast<double>(pulled) : 0.0;
}

/** Host ns per instruction skipped, over every app's source. */
double
probeSkip(std::uint64_t seed, cash::InstCount count, Tally &tally)
{
    double total = 0.0;
    cash::InstCount skipped = 0;
    for (const cash::AppModel &app : cash::allApps()) {
        auto src = cash::makeSource(app, subSeed(seed, 0x5c1b));
        cash::Cycle from = 0;
        cash::InstCount got = 0;
        double t0 = nowSeconds();
        {
            Span span("workload", "InstSource::skip");
            for (int i = 0; i < 10'000 && got < count; ++i) {
                const cash::Cycle window = 1'000'000;
                cash::SkipResult r =
                    src->skip(count - got, from, from + window);
                got += r.skipped;
                from += window;
                if (r.finished)
                    break;
            }
        }
        total += nowSeconds() - t0;
        skipped += got;
        tally.check(got > 0, "skip() probe made no progress on "
                                 + app.name);
    }
    return skipped ? total * 1e9 / static_cast<double>(skipped) : 0.0;
}

struct CoreRun
{
    double seconds = 0.0;
    cash::InstCount committed = 0;
};

/** Run one fresh 2-Slice / 4-bank vcore on `src` to `cycles`. */
CoreRun
runCore(cash::InstSource &src, cash::Cycle cycles)
{
    cash::SSim sim;
    auto id = sim.createVCore(2, 4);
    cash::VirtualCore &vc = sim.vcore(*id);
    vc.bindSource(&src);
    CoreRun out;
    double t0 = nowSeconds();
    {
        Span span("sim", "VirtualCore::runUntil");
        out.committed = vc.runUntil(cycles).committed;
    }
    out.seconds = nowSeconds() - t0;
    return out;
}

/** Host µs per SSim::command() over a fixed resize schedule. */
double
probeReconfig(std::uint64_t seed, Tally &tally)
{
    static const std::uint32_t kSchedule[][2] = {
        {2, 4}, {4, 16}, {1, 2}, {3, 8}, {1, 16}, {4, 4}, {2, 1}, {1, 1},
    };
    cash::SSim sim;
    auto id = sim.createVCore(1, 1);
    auto src = cash::makeSource(cash::appByName("x264"),
                                subSeed(seed, 0x7ec0));
    cash::VirtualCore &vc = sim.vcore(*id);
    vc.bindSource(src.get());
    std::vector<double> us;
    cash::Cycle t = 0;
    for (int lap = 0; lap < 6; ++lap) {
        for (const auto &cfg : kSchedule) {
            t += 20'000;
            sim.vcore(*id).runUntil(t); // warm the caches between
            double t0 = nowSeconds();
            std::optional<cash::ReconfigCost> cost;
            {
                Span span("sim", "SSim::command");
                cost = sim.command(*id, cfg[0], cfg[1]);
            }
            us.push_back((nowSeconds() - t0) * 1e6);
            tally.check(cost.has_value(), "SSim::command refused");
            t = sim.vcore(*id).now();
        }
    }
    return median(us);
}

/** Host µs per runtime decision (learner update + optimizer). */
double
probeDecide(std::uint64_t seed, Tally &tally)
{
    cash::ConfigSpace space;
    cash::CostModel cost;
    cash::SpeedupLearner learner(space, 0.3, 1.0, true);
    cash::TwoConfigOptimizer opt(space, cost);
    cash::Rng rng(subSeed(seed, 0xdec1));
    const int decisions = 20'000;
    std::size_t k = 0;
    double t0 = nowSeconds();
    {
        Span span("core", "TwoConfigOptimizer::solve");
        for (int i = 0; i < decisions; ++i) {
            learner.update(k, 0.5 + rng.nextDouble());
            cash::QuantumSchedule sched = opt.solve(
                0.5 + 3.0 * rng.nextDouble(), 2'000'000,
                [&](std::size_t c) { return learner.speedup(c); });
            k = sched.over;
        }
    }
    double us = (nowSeconds() - t0) * 1e6 / decisions;
    tally.check(k < space.size(), "optimizer chose no configuration");
    return us;
}

} // namespace

void
probeLayers(std::uint64_t seed, Metrics &layers, Tally &tally)
{
    layers.set("workload.next_ns", probeNext(seed, 100'000, tally), "ns");
    layers.set("workload.skip_ns", probeSkip(seed, 2'000'000, tally),
               "ns");

    // Live run first: it tells how many ops the replay needs.
    const cash::AppModel &app = cash::appByName("x264");
    const cash::Cycle cycles = 2'000'000;
    auto live = cash::makeSource(app, subSeed(seed, 0x11fe));
    CoreRun liveRun = runCore(*live, cycles);

    std::vector<cash::MicroOp> ops;
    auto gen = cash::makeSource(app, subSeed(seed, 0x11fe));
    ops.reserve(liveRun.committed + 4096);
    while (ops.size() < liveRun.committed + 4096) {
        cash::FetchResult r = gen->next(0);
        if (r.kind != cash::FetchResult::Kind::Inst)
            break;
        ops.push_back(r.op);
    }
    ReplaySource replay(ops);
    CoreRun replayRun = runCore(replay, cycles);
    // The replayed stream is the live stream, so the timing model
    // must commit exactly as many instructions.
    tally.check(replayRun.committed == liveRun.committed,
                "replay committed a different instruction count");
    layers.set("sim.ns_per_inst",
               replayRun.seconds * 1e9
                   / static_cast<double>(replayRun.committed),
               "ns");
    layers.set("sim.gen_share", 1.0 - replayRun.seconds / liveRun.seconds,
               "ratio");
    layers.set("sim.reconfig_us", probeReconfig(seed, tally), "us");
    layers.set("core.decide_us", probeDecide(seed, tally), "us");
}

} // namespace perfbench
