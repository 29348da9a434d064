/**
 * @file
 * fleet-sampled: the consolidation path. One CloudProvider with the
 * default catalog is stepped a fixed number of rounds in
 * SimMode::Sampled on one thread, then audited and drained.
 *
 * Arrivals are seeded but balanced and stationary: every repetition
 * admits each catalog class kBlocks times, in blocks of one arrival
 * per class whose order the seed shuffles, holding kPopulation
 * tenants at every round (injected through
 * CloudProvider::injectArrival). The seed also drives the provider's
 * own streams. So the amount of simulated work barely depends on the
 * seed, while the tenant mix over time does.
 */

#include <algorithm>
#include <map>

#include "check/audit.hh"
#include "cloud/provider.hh"
#include "common/rng.hh"
#include "lib/digest.hh"
#include "lib/spans.hh"
#include "lib/stats.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

/** The load is stationary: kPopulation tenants arrive before round
 *  0 with staggered residences, then one arrives every kArrivalGap
 *  rounds for kResidenceRounds, so one departs as one arrives. */
constexpr std::uint32_t kPopulation = 4;
constexpr std::uint32_t kArrivalGap = 15;
constexpr std::uint32_t kResidenceRounds = kPopulation * kArrivalGap;
/** Rounds per repetition, and arrival blocks (one arrival per
 *  catalog class each) to cover them: 4 + 2100 / 15 - 1 = 143 =
 *  13 x 11. 2,100 distinct steps, so the p99 step has 21 beyond it
 *  (the tail rule asks for 10). */
constexpr std::uint32_t kRounds = 2100;
constexpr std::uint32_t kBlocks = 13;
/** Repetitions at least: each step's time is its median of these. */
constexpr std::size_t kMinReps = 3;

cash::cloud::ProviderParams
fleetParams(std::uint64_t seed)
{
    cash::cloud::ProviderParams pp;
    pp.catalog = cash::cloud::defaultCatalog();
    // A short quantum (the default is 500k cycles) so a repetition
    // holds 2,100 distinct steps in a few seconds; a tenant still
    // stays 1.5 Mcycles, long enough for the sampler to fast-forward.
    pp.quantum = 25'000;
    pp.arrivalProb = 0.0; // arrivals come from arrivalOrder()
    pp.seed = subSeed(seed, 0xf1ee7);
    pp.simMode = cash::SimMode::Sampled;
    return pp;
}

/** Catalog indices in arrival order: kBlocks blocks, each
 *  holding every class once in a seed-shuffled order. Blocks keep
 *  the class mix present at any round nearly independent of the
 *  seed, so the work per round is too. */
std::vector<std::size_t>
arrivalOrder(std::uint64_t seed, std::size_t classes)
{
    std::vector<std::size_t> order;
    cash::Rng rng(subSeed(seed, 0xa77));
    for (std::uint32_t k = 0; k < kBlocks; ++k) {
        std::vector<std::size_t> block(classes);
        for (std::size_t c = 0; c < classes; ++c)
            block[c] = c;
        for (std::size_t i = classes; i > 1; --i)
            std::swap(block[i - 1], block[rng.nextBounded(i)]);
        order.insert(order.end(), block.begin(), block.end());
    }
    return order;
}

/** Last-seen counters of one tenant's vcore. */
struct VcoreSeen
{
    double insts = 0.0;
    double estimated = 0.0;
    double l2Accesses = 0.0;
    double l2Misses = 0.0;
};

struct Rep
{
    double wallS = 0.0;
    /** Host ms of the pieces outside the steps: constructing the
     *  provider, and the audit plus drain at the end. */
    std::vector<double> edgeMs;
    std::vector<double> stepMs;
    cash::cloud::ProviderStats stats;
    std::uint64_t rinMessages = 0;
    double auditMs = 0.0;
    std::map<cash::cloud::TenantId, VcoreSeen> seen;
    std::string digest;
};

/**
 * One repetition. With `observe`, per-tenant vcore counters are read
 * after every round. That read is not free of side effects: reading
 * VirtualCore::meta() accrues energy lazily, which changes later
 * energy figures in their last bits, so observed repetitions are
 * kept out of the digest checks.
 */
Rep
runRep(std::uint64_t seed, std::uint32_t rounds, bool observe,
       Tally &tally)
{
    Rep rep;
    double t0 = nowSeconds();
    cash::cloud::CloudProvider provider(fleetParams(seed));
    rep.edgeMs.push_back((nowSeconds() - t0) * 1e3);
    const std::vector<std::size_t> order =
        arrivalOrder(seed, provider.params().catalog.size());
    std::size_t arrived = 0;
    auto arrive = [&](std::uint32_t residence) {
        if (arrived == order.size())
            return;
        Span span("cloud", "CloudProvider::injectArrival");
        provider.injectArrival(order[arrived++], residence);
    };
    for (std::uint32_t r = 0; r < rounds; ++r) {
        if (r == 0)
            for (std::uint32_t i = 1; i <= kPopulation; ++i)
                arrive(i * kArrivalGap);
        else if (r % kArrivalGap == 0)
            arrive(kResidenceRounds);
        double s0 = nowSeconds();
        {
            Span span("cloud", "CloudProvider::step");
            provider.step();
        }
        rep.stepMs.push_back((nowSeconds() - s0) * 1e3);
        if (!observe)
            continue;
        // Per-layer counters, read outside the timed step.
        for (cash::cloud::TenantId id : provider.activeTenants()) {
            const cash::cloud::Tenant &t = *provider.tenants()[id];
            const cash::VirtualCore &vc = provider.chip().vcore(t.vcore);
            cash::VCoreMeta m = vc.meta();
            rep.seen[id] = {static_cast<double>(m.totalCommitted),
                            static_cast<double>(m.estimatedInsts),
                            static_cast<double>(vc.l2().accesses()),
                            static_cast<double>(vc.l2().misses())};
        }
    }
    rep.stats = provider.stats();
    rep.rinMessages = provider.chip().rinMessages();

    double a0 = nowSeconds();
    try {
        Span span("check", "auditProvider");
        cash::auditProvider(provider);
        tally.ok();
    } catch (const std::exception &e) {
        tally.fail(std::string("fleet audit: ") + e.what());
    }
    rep.auditMs = (nowSeconds() - a0) * 1e3;

    // Drain: every tenant departs with a final bill, and the audit
    // must still hold (billing conservation at shutdown).
    std::vector<cash::cloud::FinalBill> bills;
    try {
        Span span("cloud", "CloudProvider::drain");
        bills = provider.drain();
        cash::auditProvider(provider);
        tally.ok();
    } catch (const std::exception &e) {
        tally.fail(std::string("fleet drain audit: ") + e.what());
    }
    rep.edgeMs.push_back((nowSeconds() - a0) * 1e3);
    rep.wallS = nowSeconds() - t0;
    tally.check(rep.stats.tenantRounds > 0 && !bills.empty(),
                "fleet ran no tenants");

    Digest dg;
    const cash::cloud::ProviderStats &st = rep.stats;
    for (std::uint64_t v :
         {st.rounds, st.arrivals, st.admitted, st.rejected, st.abandoned,
          st.departed, st.tenantRounds, st.slaSamples, st.slaViolations,
          rep.rinMessages})
        dg.add(v);
    dg.add(st.departedRevenue);
    dg.add(st.sliceUtilSum);
    dg.add(st.dissipatedJoules);
    for (const cash::cloud::FinalBill &b : bills) {
        dg.add(static_cast<std::uint64_t>(b.tenant));
        dg.add(std::string_view(b.app));
        dg.add(b.bill);
        dg.add(b.joules);
        dg.add(b.qosSamples);
        dg.add(b.qosViolations);
    }
    rep.digest = dg.hex();
    return rep;
}

} // namespace

void
setupFleet(std::uint64_t seed, void (*ready)())
{
    cash::cloud::CloudProvider provider(fleetParams(seed));
    if (provider.round() != 0)
        return;
    ready();
}

Outcome
runFleet(const RunConfig &cfg)
{
    Outcome o;
    const std::uint32_t rounds = cfg.probe ? 16 : kRounds;
    std::vector<Rep> reps;
    double start = nowSeconds();
    do {
        reps.push_back(runRep(cfg.seed, rounds, false, o.tally));
    } while (!cfg.probe
             && (reps.size() < kMinReps
                 || nowSeconds() - start + reps.back().wallS
                     <= cfg.seconds));

    for (const Rep &r : reps)
        o.tally.check(r.digest == reps.front().digest,
                      "fleet digest differs between repetitions");
    o.digest = reps.front().digest;

    // Figures come from each piece's median time over the
    // repetitions (see PieceTimes): every repetition steps through
    // the same states. work_s sums the steps, the provider's construction
    // and the audit plus drain; the step percentiles are over the
    // 2,100 steps, and throughput_per_s divides the tenant-rounds by
    // the steps' sum.
    PieceTimes steps, edges;
    for (const Rep &r : reps)
        o.tally.check(steps.add(r.stepMs) && edges.add(r.edgeMs),
                      "fleet pieces differ between repetitions");
    const cash::cloud::ProviderStats &st = reps.front().stats;
    const std::vector<double> stepMs = steps.quantile(0.5);
    const double stepsMs = sum(stepMs);
    const double rate =
        static_cast<double>(st.tenantRounds) / (stepsMs / 1e3);
    const Summary step = summarize(stepMs);
    o.e2e.set("work_s", (stepsMs + sum(edges.quantile(0.5))) / 1e3, "s");
    o.e2e.set("p50_ms", step.p50, "ms");
    o.e2e.set("p99_ms", step.p99, "ms");
    o.e2e.set("throughput_per_s", rate, "1/s");
    o.notes.push_back(
        "fleet-sampled: " + std::to_string(reps.size())
        + " repetition(s) of " + std::to_string(rounds)
        + " rounds, each step at its median; steps n="
        + std::to_string(step.samples)
        + ", tail p" + formatNumber(step.tailPct) + " = "
        + formatNumber(step.tail) + " ms; tenant-rounds "
        + std::to_string(st.tenantRounds) + "; digest " + o.digest);

    if (!cfg.trace)
        return o;
    Rep observed = runRep(cfg.seed, rounds, true, o.tally);
    Metrics &L = o.layers;
    L.set("cloud.step_ms.p50", step.p50, "ms");
    L.set("cloud.step_ms.p99", step.p99, "ms");
    L.set("cloud.tenant_quanta_per_s", rate, "1/s");
    L.set("cloud.mean_active",
          static_cast<double>(st.tenantRounds)
              / static_cast<double>(st.rounds),
          "count");
    L.set("cloud.admit_ratio",
          static_cast<double>(st.admitted)
              / static_cast<double>(st.arrivals),
          "ratio");
    L.set("cloud.viol_pct",
          st.slaSamples ? 100.0 * static_cast<double>(st.slaViolations)
                  / static_cast<double>(st.slaSamples)
                        : 0.0,
          "%");
    VcoreSeen sum;
    for (const auto &kv : observed.seen) {
        sum.insts += kv.second.insts;
        sum.estimated += kv.second.estimated;
        sum.l2Accesses += kv.second.l2Accesses;
        sum.l2Misses += kv.second.l2Misses;
    }
    L.set("sim.detailed_share",
          sum.insts > 0 ? 1.0 - sum.estimated / sum.insts : 0.0, "ratio");
    L.set("sim.l2_hit_ratio",
          sum.l2Accesses > 0 ? 1.0 - sum.l2Misses / sum.l2Accesses : 0.0,
          "ratio");
    L.set("sim.rin_msgs_per_tenant_quantum",
          static_cast<double>(reps.front().rinMessages)
              / static_cast<double>(st.tenantRounds),
          "count");
    std::vector<double> audit;
    for (const Rep &r : reps)
        audit.push_back(r.auditMs);
    L.set("check.audit_ms", median(audit), "ms");
    return o;
}

} // namespace perfbench
