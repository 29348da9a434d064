/**
 * @file
 * fig7-detailed: the paper's headline pipeline (Fig 7 / Table III)
 * over a fixed app subset in full detailed simulation. Each
 * repetition characterizes x264 (phased), mcf (memory-bound) and
 * apache (request-driven) over the 64-configuration space, then runs
 * Optimal, ConvexOpt, RaceToIdle and CASH on each, all on one
 * ExperimentEngine. The seed drives the workload streams and the
 * characterization streams.
 */

#include <cmath>
#include <map>

#include "baselines/experiment.hh"
#include "common/log.hh"
#include "harness/eval_grid.hh"
#include "harness/experiment_engine.hh"
#include "lib/digest.hh"
#include "lib/spans.hh"
#include "lib/stats.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using cash::PolicyKind;

/** Oracle first and CASH last: the cost ratio pairs them per app. */
constexpr PolicyKind kKinds[] = {PolicyKind::Oracle,
                                 PolicyKind::ConvexOpt,
                                 PolicyKind::RaceToIdle,
                                 PolicyKind::Cash};
constexpr std::size_t kKindCount = std::size(kKinds);

/** The paper's name for each policy ("Optimal" for the oracle). */
const char *
kindLabel(PolicyKind k)
{
    return k == PolicyKind::Oracle ? "Optimal" : cash::policyName(k);
}

struct Scale
{
    std::vector<const char *> apps;
    cash::ExperimentParams params;
    cash::ExperimentParams requestParams;
    cash::ProfileParams profile;
    cash::ProfileParams requestProfile;

    const cash::ExperimentParams &
    paramsFor(const cash::AppModel &app) const
    {
        return app.isRequestDriven() ? requestParams : params;
    }

    const cash::ProfileParams &
    profileFor(const cash::AppModel &app) const
    {
        return app.isRequestDriven() ? requestProfile : profile;
    }
};

Scale
scaleFor(std::uint64_t seed, bool probe)
{
    Scale s;
    s.apps = probe ? std::vector<const char *>{"x264"}
                   : std::vector<const char *>{"x264", "mcf", "apache"};
    s.params.quantum = 2'000'000;
    s.params.phaseScale = 20.0;
    s.params.horizon = 12'000'000;
    s.params.seed = subSeed(seed, 0xf17);
    s.requestParams = s.params;
    s.requestParams.horizon = 18'000'000;
    s.profile.warmupInsts = probe ? 4'000 : 6'000;
    s.profile.measureInsts = probe ? 8'000 : 12'000;
    s.profile.requestWindow = 300'000;
    s.profile.seed = subSeed(seed, 0xc4a);
    // A request app's sweep replays one seeded arrival stream per
    // rate bin for all 64 configurations, a few requests each, so its
    // stream seed alone scaled apache's sweep, a third of the cell
    // work, by up to 3x (1.2-3.5 s over four seeds). It keeps the
    // library's default stream seed; the run seed still reaches
    // apache through its policy runs.
    s.requestProfile = s.profile;
    s.requestProfile.seed = cash::ProfileParams{}.seed;
    return s;
}

struct Cell
{
    cash::RunOutput out;
    double hostS = 0.0;
    double costRate = 0.0;
};

struct Rep
{
    double wallS = 0.0;
    double characterizeS = 0.0;
    std::map<std::string, double> policyS;
    /** Simulated cycles of each policy cell. */
    std::vector<double> cellCycles;
    std::uint64_t cashReconfigs = 0;
    std::uint64_t cashQuanta = 0;
    double costRatio = 0.0;
    double violPct = 0.0;
    double busyShare = 0.0;
    /** Host ms of every engine cell (sweep points, then the policy
     *  runs), in declaration order. */
    std::vector<double> cellMs;
    /** Indices into cellMs of the throughput apps' sweep points. */
    std::vector<std::size_t> sweepCells;
    std::string digest;
};

Rep
runRep(const Scale &scale, std::size_t threads, Tally &tally)
{
    Rep rep;
    cash::ConfigSpace space;
    cash::CostModel cost;
    cash::harness::ExperimentEngine engine(threads);
    Digest dg;

    double t0 = nowSeconds();
    std::vector<cash::AppModel> apps;
    std::vector<cash::AppProfile> profiles;
    for (const char *name : scale.apps) {
        const cash::AppModel &raw = cash::appByName(name);
        const cash::ExperimentParams &ep = scale.paramsFor(raw);
        apps.push_back(cash::harness::prepareApp(raw, ep));
        const std::size_t firstCell = engine.report().cells.size();
        double c0 = nowSeconds();
        {
            Span span("baselines", "characterize");
            profiles.push_back(cash::characterize(
                engine, apps.back(), space, ep.fabric, ep.sim,
                scale.profileFor(raw)));
        }
        rep.characterizeS += nowSeconds() - c0;
        // Cell latency is taken over the throughput apps' sweep
        // points: each measures a fixed instruction count, while a
        // request app's point simulates a fixed window of its rate
        // bin's arrival stream, a few requests or none.
        if (!raw.isRequestDriven())
            for (std::size_t i = firstCell; i < engine.report().cells.size();
                 ++i)
                rep.sweepCells.push_back(i);
        const cash::AppProfile &pr = profiles.back();
        dg.add(std::string_view(name));
        dg.add(pr.qosTarget);
        for (const auto &row : pr.phasePerf)
            for (double v : row)
                dg.add(v);
        for (const auto &row : pr.binLatency)
            for (double v : row)
                dg.add(v);
    }

    const std::size_t n = apps.size() * kKindCount;
    std::vector<Cell> cells;
    {
        Span span("harness", "ExperimentEngine::map");
        cells = engine.map<Cell>(
            n,
            [&](std::size_t i) {
                const cash::AppModel &app = apps[i / kKindCount];
                Cell c;
                double c0 = nowSeconds();
                {
                    Span s("baselines", "runPolicy");
                    c.out = cash::runPolicy(
                        app, profiles[i / kKindCount],
                        kKinds[i % kKindCount], space, cost,
                        scale.paramsFor(app));
                }
                c.hostS = nowSeconds() - c0;
                double hours = cost.hours(c.out.stats.cycles);
                c.costRate = hours > 0 ? c.out.stats.cost / hours : 0.0;
                return c;
            },
            [&](std::size_t i) {
                return cash::harness::CellKey{
                    apps[i / kKindCount].name,
                    kindLabel(kKinds[i % kKindCount]), i, 0};
            });
    }
    rep.wallS = nowSeconds() - t0;

    double logRatio = 0.0;
    std::uint64_t cashSamples = 0, cashViol = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Cell &c = cells[i];
        const cash::AppModel &app = apps[i / kKindCount];
        PolicyKind k = kKinds[i % kKindCount];
        const cash::PolicyStats &st = c.out.stats;
        rep.policyS[kindLabel(k)] += c.hostS;
        rep.cellCycles.push_back(static_cast<double>(st.cycles));
        dg.add(std::string_view(kindLabel(k)));
        dg.add(st.cost);
        dg.add(static_cast<std::uint64_t>(st.cycles));
        dg.add(static_cast<std::uint64_t>(st.busyCycles));
        dg.add(st.samples);
        dg.add(st.violations);
        dg.add(st.qosSum);
        dg.add(static_cast<std::uint64_t>(st.reconfigs));
        // Every cell must simulate to its horizon and sample QoS.
        tally.check(st.cycles >= scale.paramsFor(app).horizon
                        && st.samples > 0 && c.costRate > 0.0,
                    "fig7 cell " + app.name + "/" + kindLabel(k)
                        + " did not complete");
        if (k == PolicyKind::Cash) {
            rep.cashReconfigs += st.reconfigs;
            rep.cashQuanta += c.out.series.size();
            cashSamples += st.samples;
            cashViol += st.violations;
            double opt = cells[i - (kKindCount - 1)].costRate; // Oracle
            if (opt > 0 && c.costRate > 0)
                logRatio += std::log(c.costRate / opt);
        }
    }
    rep.costRatio = std::exp(logRatio / static_cast<double>(apps.size()));
    rep.violPct = cashSamples
        ? 100.0 * static_cast<double>(cashViol)
            / static_cast<double>(cashSamples)
        : 0.0;

    // Σ cell time / (threads x engine wall); above 1 when the thread
    // waiting in ExperimentEngine::run() helps run cells.
    double busyMs = 0.0;
    for (const auto &ct : engine.report().cells) {
        busyMs += ct.millis;
        rep.cellMs.push_back(ct.millis);
    }
    rep.busyShare = busyMs
        / (static_cast<double>(engine.threads())
           * engine.report().wallMillis);
    rep.digest = dg.hex();
    return rep;
}

} // namespace

void
setupFig7(std::uint64_t seed, void (*ready)())
{
    Scale scale = scaleFor(seed, false);
    cash::ConfigSpace space;
    cash::CostModel cost;
    std::vector<cash::AppModel> apps;
    for (const char *name : scale.apps) {
        const cash::AppModel &raw = cash::appByName(name);
        apps.push_back(cash::harness::prepareApp(raw, scale.paramsFor(raw)));
    }
    if (space.size() == 0 || apps.size() != scale.apps.size())
        return;
    ready();
}

Outcome
runFig7(const RunConfig &cfg)
{
    Outcome o;
    Scale scale = scaleFor(cfg.seed, cfg.probe);
    std::vector<Rep> reps;
    double start = nowSeconds();
    do {
        reps.push_back(runRep(scale, cfg.threads, o.tally));
    } while (!cfg.probe && nowSeconds() - start + reps.back().wallS
                 <= cfg.seconds);

    // Determinism: every repetition simulates the same outputs.
    for (const Rep &r : reps)
        o.tally.check(r.digest == reps.front().digest,
                      "fig7 digest differs between repetitions");
    o.digest = reps.front().digest;

    // In traced runs also check the digest at another engine thread
    // count (the timed repetitions all use cfg.threads).
    if (cfg.trace) {
        std::size_t other = cfg.threads == 1 ? 2 : 1;
        Rep alt = runRep(scale, other, o.tally);
        o.tally.check(alt.digest == o.digest,
                      "fig7 digest differs at another thread count");
        o.notes.push_back("fig7 digest at " + std::to_string(other)
                          + " thread(s): " + alt.digest);
    }

    // Figures come from each engine cell's median time over the
    // repetitions (see PieceTimes): work_s sums them all, the cell
    // percentiles are over the throughput apps' sweep points (about
    // 800), and throughput_per_s is the geometric mean over the
    // policy cells of simulated cycles per second, so that each
    // policy run weighs the same and apache's, whose length follows
    // its seeded request stream, does not set the figure alone.
    PieceTimes cells;
    for (const Rep &r : reps)
        o.tally.check(cells.add(r.cellMs),
                      "fig7 engine cells differ between repetitions");
    const std::vector<double> cellMs = cells.quantile(0.5);
    std::vector<double> sweepMs;
    for (std::size_t i : reps.front().sweepCells)
        sweepMs.push_back(cellMs[i]);
    const std::size_t n = scale.apps.size() * kKindCount;
    const std::size_t firstPolicy = cellMs.size() - n;
    double logRate = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        logRate += std::log(reps.front().cellCycles[i]
                            / (cellMs[firstPolicy + i] / 1e3));
    const double rate = std::exp(logRate / static_cast<double>(n));
    const Summary points = summarize(sweepMs);
    o.e2e.set("work_s", sum(cellMs) / 1e3, "s");
    o.e2e.set("p50_ms", points.p50, "ms");
    o.e2e.set("p99_ms", points.p99, "ms");
    o.e2e.set("throughput_per_s", rate, "1/s");
    o.notes.push_back(
        "fig7-detailed: " + std::to_string(reps.size())
        + " repetition(s) of " + std::to_string(scale.apps.size())
        + " apps x 4 policies on " + std::to_string(cfg.threads)
        + " engine thread(s), " + std::to_string(cellMs.size())
        + " cells each at its median; sweep points n="
        + std::to_string(points.samples) + ", tail p"
        + formatNumber(points.tailPct) + " = " + formatNumber(points.tail)
        + " ms; digest " + o.digest);

    if (!cfg.trace)
        return o;
    // Per-layer numbers: medians over repetitions.
    auto med = [&](auto field) {
        std::vector<double> v;
        for (const Rep &r : reps)
            v.push_back(field(r));
        return median(v);
    };
    Metrics &L = o.layers;
    L.set("baselines.characterize_s",
          med([](const Rep &r) { return r.characterizeS; }), "s");
    for (PolicyKind k : kKinds) {
        std::string label = kindLabel(k);
        L.set("baselines.policy_s." + label,
              med([&](const Rep &r) { return r.policyS.at(label); }),
              "s");
    }
    L.set("baselines.sim_mcycles_per_s", rate / 1e6,
          "Mcycles/s");
    L.set("core.cash.reconfigs",
          static_cast<double>(reps.front().cashReconfigs), "count");
    L.set("core.cash.quanta",
          static_cast<double>(reps.front().cashQuanta), "count");
    L.set("core.cost_ratio", reps.front().costRatio, "x");
    L.set("core.viol_pct", reps.front().violPct, "%");
    L.set("harness.busy_share",
          med([](const Rep &r) { return r.busyShare; }), "ratio");
    return o;
}

} // namespace perfbench
