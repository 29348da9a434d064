/**
 * @file
 * cash_perfbench: run one benchmark workload and print its metrics.
 *
 *   cash_perfbench --workload <fig7-detailed|fleet-sampled|serve-control>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  [--workdir <dir>]
 *
 * The last line of stdout is the result object
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
 * the end-to-end metrics; --trace 1 is a separate run that records
 * the benchmark's spans around each call into a layer, writes them
 * as a Chrome trace to <workdir>/trace-<workload>-<seed>.json and
 * reports the per-layer metrics. The exit code is 0 only when every
 * check passed.
 *
 * setup_s is measured by re-executing this binary with --setup-only
 * several times and timing each child from spawn until it reports
 * ready; the median is reported.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hh"
#include "lib/spans.hh"
#include "lib/stats.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{

namespace
{

struct Workload
{
    const char *name;
    Outcome (*run)(const RunConfig &);
    void (*setup)(std::uint64_t, void (*)());
};

const Workload kWorkloads[] = {
    {"fig7-detailed", runFig7, setupFig7},
    {"fleet-sampled", runFleet, setupFleet},
    {"serve-control", runServe, setupServe},
};

void
printReady()
{
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "cash_perfbench: %s\nusage: cash_perfbench --workload "
                 "<fig7-detailed|fleet-sampled|serve-control> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
                 msg);
    std::exit(2);
}

/**
 * Spawn `self --setup-only` and time it from spawn until it prints
 * "ready". Returns a negative value if the child failed.
 */
double
timeOneSetup(const std::string &self, const std::string &workload,
             const std::string &seed)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::vector<std::string> args = {self,     "--setup-only", "--workload",
                                     workload, "--seed",       seed,
                                     "--workdir", workdir()};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = 0;
    double t0 = nowSeconds();
    int rc = posix_spawn(&pid, self.c_str(), &fa, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        return -1.0;
    }
    std::string got;
    char buf[64];
    double readyAt = -1.0;
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
        got.append(buf, static_cast<std::size_t>(n));
        if (readyAt < 0 && got.find("ready\n") != std::string::npos)
            readyAt = nowSeconds();
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (readyAt < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1.0;
    return readyAt - t0;
}

/** Peak resident memory of this program image, MiB: VmHWM, not
 *  ru_maxrss, which on Linux also remembers the memory of the parent
 *  that forked this process before it exec'd. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MiB
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void
printTable(const char *title, const Metrics &m)
{
    std::printf("%s\n", title);
    for (const Metric &x : m.all())
        std::printf("  %-40s %16s %s\n", x.name.c_str(),
                    formatNumber(x.value).c_str(), x.unit.c_str());
}

} // namespace

int
run(int argc, char **argv)
{
    std::string workload, seedArg;
    double seconds = -1.0;
    int trace = -1;
    bool setupOnly = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed")
            seedArg = value();
        else if (a == "--seconds")
            seconds = std::atof(value().c_str());
        else if (a == "--trace")
            trace = std::atoi(value().c_str());
        else if (a == "--workdir")
            workdir() = value();
        else if (a == "--setup-only")
            setupOnly = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (workload == cand.name)
            w = &cand;
    if (!w)
        usage("unknown or missing --workload");
    if (seedArg.empty()
        || seedArg.find_first_not_of("0123456789") != std::string::npos)
        usage("--seed must be a non-negative integer");
    std::uint64_t seed = std::strtoull(seedArg.c_str(), nullptr, 10);
    cash::setLogLevel(cash::LogLevel::Warn);
    std::filesystem::create_directories(workdir());

    if (setupOnly) {
        w->setup(seed, printReady);
        return 0;
    }
    if (seconds <= 0.0 || (trace != 0 && trace != 1))
        usage("--seconds must be > 0 and --trace 0 or 1");

    RunConfig cfg;
    cfg.seed = seed;
    cfg.seconds = seconds;
    // One engine worker plus the thread waiting in
    // ExperimentEngine::run(), which helps run cells: two cells at
    // once, half the 4 vCPUs of a typical shared host.
    cfg.threads = 1;

    Tally tally;
    Metrics metrics;
    std::vector<std::string> notes;
    try {
        if (!trace) {
            // Set-up time: the median of several fresh processes.
            std::string self = std::filesystem::canonical("/proc/self/exe");
            std::vector<double> setups;
            for (int i = 0; i < 11; ++i) {
                double s = timeOneSetup(self, w->name, seedArg);
                if (s < 0)
                    tally.fail("set-up child failed");
                else
                    setups.push_back(s);
            }
            Outcome o = w->run(cfg);
            tally.merge(o.tally);
            notes = o.notes;
            metrics.set("setup_s", median(setups), "s");
            metrics.set("peak_rss_mb", peakRssMb(), "MB");
            metrics.set("ok_pct",
                        100.0
                            * static_cast<double>(tally.attempted
                                                  - tally.failed)
                            / static_cast<double>(
                                std::max<std::uint64_t>(tally.attempted,
                                                        1)),
                        "%");
            metrics.addMissing(o.e2e);
        } else {
            // Untraced pass first (the baseline for the overhead),
            // then the traced pass of the same work, then probes of
            // the layers this workload does not load.
            RunConfig half = cfg;
            half.seconds = cfg.seconds / 3;
            Outcome plain = w->run(half);

            SpanLog log;
            log.install();
            RunConfig traced = half;
            traced.trace = true;
            Outcome own = w->run(traced);
            RunConfig probe = traced;
            probe.probe = true;
            Metrics layers = own.layers;
            std::vector<Outcome> parts = {plain, own};
            for (const Workload &other : kWorkloads) {
                if (&other == w)
                    continue;
                Outcome p = other.run(probe);
                layers.addMissing(p.layers);
                parts.push_back(std::move(p));
            }
            Tally probes;
            probeLayers(seed, layers, probes);
            log.uninstall();

            for (const Outcome &p : parts)
                tally.merge(p.tally);
            tally.merge(probes);
            tally.check(plain.digest == own.digest,
                        "traced and untraced digests differ");
            notes = own.notes;

            metrics = layers;
            for (const auto &[layer, ms] : log.selfMs())
                metrics.set("trace.self_ms." + layer, ms, "ms");
            const Metric *pw = plain.e2e.find("work_s");
            const Metric *tw = own.e2e.find("work_s");
            metrics.set("trace.overhead_pct",
                        100.0 * (tw->value - pw->value) / pw->value, "%");
            std::string path = workdir() + "/trace-" + w->name + "-"
                + seedArg + ".json";
            tally.check(log.writeChrome(path),
                        "could not write " + path);
            notes.push_back("trace: " + path);
        }
    } catch (const std::exception &e) {
        tally.fail(std::string("exception: ") + e.what());
    }

    for (const std::string &n : notes)
        std::printf("%s\n", n.c_str());
    for (const std::string &r : tally.reasons)
        std::printf("FAILED: %s\n", r.c_str());
    std::printf("fail_pct %s %% (%llu of %llu operations)\n",
                formatNumber(100.0 * static_cast<double>(tally.failed)
                             / static_cast<double>(std::max<std::uint64_t>(
                                 tally.attempted, 1)))
                    .c_str(),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    printTable(trace ? "per-layer metrics:" : "end-to-end metrics:",
               metrics);
    if (tally.attempted == 0)
        tally.fail("no operation attempted");
    bool correct = tally.failed == 0;
    std::printf("%s\n", resultLine(correct, tally, metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
