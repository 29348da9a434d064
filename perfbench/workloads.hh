/**
 * @file
 * The benchmark's three workloads. Each loads a different set of the
 * program's layers:
 *
 *  - fig7-detailed: workload, sim, core, baselines, harness
 *    (characterize + four policies over x264, mcf and apache, full
 *    detailed simulation, on the ExperimentEngine);
 *  - fleet-sampled: workload, sim, core, cloud, check (one
 *    CloudProvider stepped in SimMode::Sampled on one thread);
 *  - serve-control: service, cloud, check (a seeded request log of
 *    control-plane ops, no steps, replayed in-process through the
 *    codec and RegionCore::apply; the traced run adds a ServiceServer
 *    driven open loop over Unix sockets).
 *
 * A workload run returns its end-to-end numbers and, when traced,
 * its per-layer numbers. `probe` selects a small fixed scale, used
 * when another workload's traced run needs this workload's layers
 * measured (see main.cc).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "lib/report.hh"

namespace perfbench
{

struct RunConfig
{
    std::uint64_t seed = 1;
    /** Measurement budget for the repeated part, seconds. */
    double seconds = 10.0;
    /** Traced run: fill Outcome::layers. */
    bool trace = false;
    /** Small fixed scale (a probe inside another workload's traced
     *  run); end-to-end numbers of a probe are not reported. */
    bool probe = false;
    /** ExperimentEngine threads (fig7 only). */
    std::size_t threads = 1;
};

struct Outcome
{
    Tally tally;
    /** work_s, p50_ms, p99_ms, throughput_per_s. */
    Metrics e2e;
    Metrics layers;
    /** Digest of every simulated output the run checked (serve:
     *  every answer of the replayed request log). */
    std::string digest;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
};

Outcome runFig7(const RunConfig &cfg);
Outcome runFleet(const RunConfig &cfg);
Outcome runServe(const RunConfig &cfg);

/** Build the workload's ready state (the set-up that setup_s times)
 *  and call ready() once it is reached; tears down afterwards. */
void setupFig7(std::uint64_t seed, void (*ready)());
void setupFleet(std::uint64_t seed, void (*ready)());
void setupServe(std::uint64_t seed, void (*ready)());

/** Standalone layer probes timed from outside (probes.cc):
 *  workload.next_ns/skip_ns, sim.ns_per_inst/gen_share/reconfig_us
 *  and core.decide_us. */
void probeLayers(std::uint64_t seed, Metrics &layers,
                         Tally &tally);

/** Directory for sockets and trace files (--workdir). */
std::string &workdir();

/** Seconds on a steady clock since an arbitrary epoch. */
double nowSeconds();

/** Derive a per-purpose seed from the run seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
