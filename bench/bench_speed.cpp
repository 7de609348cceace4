/**
 * @file
 * Simulator speed baseline: wall-clock throughput of the hot paths
 * (event pops, frame deliveries, probe rounds, LLC accesses) across a
 * representative slice of the evaluation grid -- every ring-defense
 * tier with and without an attacker, on the single-queue and 4-queue
 * NIC, plus the server model's closed loop under the DDIO baseline and
 * the adaptive partition.
 *
 * Unlike the figure benches this measures the *simulator*, not the
 * simulated machine: each traffic cell runs the same reduced testbed
 * for the same simulated horizon, each server cell the same request
 * count on the full 20 MB LLC, and the row reports how many simulated
 * events/frames/probe rounds/LLC accesses per host second that run
 * sustained. The obs::Stat counters provide the numerators (they
 * advance only with simulated work, so the rates are comparable across
 * commits), a steady_clock around each cell the denominator.
 *
 * Cells run strictly serially on one thread: wall-clock per cell is
 * the quantity under measurement, so cells must not contend for
 * cores the way a normal campaign's workers do.
 *
 * Emits BENCH_speed.json (via sim::BenchReport) -- the tracked speed
 * trajectory that ROADMAP item 2's optimization work is measured
 * against.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "attack/footprint.hh"
#include "bench_util.hh"
#include "defense/registry.hh"
#include "net/traffic.hh"
#include "obs/profile.hh"
#include "obs/stats.hh"
#include "sim/bench_report.hh"
#include "sim/json.hh"
#include "testbed/testbed.hh"
#include "workload/defense_eval.hh"
#include "workload/detect_eval.hh"
#include "workload/server.hh"

using namespace pktchase;

namespace
{

/** Simulated horizon of every traffic cell: long enough that
 *  per-cell rates are stable (hundreds of thousands of events), short
 *  enough that the full sweep stays in CI budget. */
constexpr Cycles kHorizon = secondsToCycles(0.04);

/** Closed-loop requests per server cell: about 0.1 s of host time per
 *  rep, some 300 k LLC accesses through the server model's memory
 *  path. */
constexpr std::size_t kServerRequests = 1000;

/** Workload seed shared by every cell (identical offered load). */
constexpr std::uint64_t kSeed = 0x5eedul;

/**
 * One speed cell: a traffic cell (defense tier x queue count x
 * attacker presence) or, when serverCache is set, a server-model cell
 * under that cache defense.
 */
struct SpeedCell
{
    std::string ring;
    std::size_t queues = 1;
    bool attacker = false;
    std::string serverCache; ///< Non-empty: ServerWorkload::closedLoop.

    std::string
    name() const
    {
        if (!serverCache.empty())
            return "speed/server/" + serverCache;
        return "speed/" + ring + "+" + defense::nicSpecOf(queues) +
               (attacker ? "/attack" : "/benign");
    }
};

std::vector<SpeedCell>
speedCells()
{
    std::vector<SpeedCell> cells;
    for (const char *ring :
         {"ring.none", "ring.partial:1000",
          "ring.gated:cadence:partial.1000"}) {
        for (std::size_t q : {std::size_t(1), std::size_t(4)}) {
            for (bool attacker : {false, true})
                cells.push_back({ring, q, attacker, ""});
        }
    }
    for (const char *cache : {"cache.ddio", "cache.adaptive"})
        cells.push_back({"", 1, false, cache});
    return cells;
}

/** Time @p body and turn the obs::Stat delta it produced into rate
 *  metrics. */
template <typename Body>
sim::BenchReport::Metrics
measure(Body &&body)
{
    const obs::StatSnapshot before = obs::snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double wall_sec = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    const obs::StatSnapshot delta = obs::snapshot() - before;

    const auto rate = [wall_sec](std::uint64_t n) {
        return wall_sec > 0.0 ? static_cast<double>(n) / wall_sec : 0.0;
    };
    const std::uint64_t events = delta.get(obs::Stat::SimEvents);
    const std::uint64_t frames = delta.get(obs::Stat::FramesDelivered);
    const std::uint64_t rounds = delta.get(obs::Stat::ProbeRounds);
    const std::uint64_t accesses = delta.get(obs::Stat::LlcAccesses);

    sim::BenchReport::Metrics m;
    m.emplace_back("wall_ms", wall_sec * 1e3);
    m.emplace_back("sim_events", static_cast<double>(events));
    m.emplace_back("sim_events_per_sec", rate(events));
    m.emplace_back("frames_delivered", static_cast<double>(frames));
    m.emplace_back("frames_per_sec", rate(frames));
    m.emplace_back("probe_rounds", static_cast<double>(rounds));
    m.emplace_back("probe_rounds_per_sec", rate(rounds));
    m.emplace_back("llc_accesses", static_cast<double>(accesses));
    m.emplace_back("llc_accesses_per_sec", rate(accesses));
    return m;
}

/** Run one cell once and return its rate metrics. */
sim::BenchReport::Metrics
runCellOnce(const SpeedCell &cell)
{
    if (!cell.serverCache.empty()) {
        testbed::Testbed tb(workload::makeDefenseConfig(
            cell.serverCache, cache::Geometry::xeonE52660()));
        workload::ServerConfig scfg;
        scfg.seed = kSeed;
        workload::ServerWorkload server(tb, scfg);
        return measure([&server] { server.closedLoop(kServerRequests); });
    }

    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.ringDefense = cell.ring;
    cfg.nicSpec = defense::nicSpecOf(cell.queues);
    testbed::Testbed tb(cfg);

    // Every traffic cell carries the figD1 benign mix.
    net::TrafficPump pump(tb.eq(), tb.driver(),
                          workload::benignMix(kSeed), 1000);

    if (!cell.attacker)
        return measure([&tb] { tb.eq().runUntil(kHorizon); });

    return measure([&tb] {
        // The footprint scan is the probe-heavy attacker phase; it
        // drives the event queue itself, interleaving with the pump.
        std::vector<std::size_t> all;
        for (std::size_t c = 0; c < tb.groups().groups.size(); ++c)
            all.push_back(c);
        attack::FootprintConfig fcfg;
        fcfg.probeRateHz = 8000.0;
        fcfg.probe.ways = tb.config().llc.geom.ways;
        attack::FootprintScanner scanner(tb.hier(), tb.groups(), all,
                                         fcfg);
        scanner.scan(tb.eq(), kHorizon);
    });
}

double
metricOf(const sim::BenchReport::Metrics &m, const std::string &key)
{
    for (const auto &kv : m)
        if (kv.first == key)
            return kv.second;
    fatal("bench_speed: no metric '" + key + "'");
}

/**
 * Run one cell @p reps times and keep the fastest repetition. The
 * simulated work is deterministic, so every rep must report identical
 * counter totals -- only the wall clock (and thus the rates) varies
 * with host noise; best-of-N is the standard way to estimate the
 * noise floor of a deterministic workload. A counter mismatch between
 * reps means the simulator is *not* deterministic and is fatal.
 */
sim::BenchReport::Metrics
runCell(const SpeedCell &cell, unsigned reps)
{
    sim::BenchReport::Metrics best = runCellOnce(cell);
    for (unsigned r = 1; r < reps; ++r) {
        const sim::BenchReport::Metrics m = runCellOnce(cell);
        for (const char *key :
             {"sim_events", "frames_delivered", "probe_rounds",
              "llc_accesses"}) {
            if (metricOf(m, key) != metricOf(best, key)) {
                fatal("bench_speed: " + cell.name() + " rep " +
                      std::to_string(r) + " changed deterministic "
                      "counter '" + key + "'");
            }
        }
        if (metricOf(m, "wall_ms") < metricOf(best, "wall_ms"))
            best = m;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    // bench_speed [--reps=N] [--profile] [cell-name-substring]
    //
    // The benign cells finish in single-digit milliseconds, so
    // one-shot rates see double-digit host noise; the default 5
    // repetitions keep the gate meaningful. A filter restricts the
    // sweep (profiling one cell) and suppresses the JSON so a partial
    // run can never masquerade as a baseline.
    unsigned reps = 5;
    std::string filter;
    bool profileMode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--reps=", 0) == 0) {
            // All digits and in [1, UINT_MAX], the check campaign's
            // --threads makes: a bare atoi would read "2abc" as 2 and
            // wrap "4294967297" to 1.
            std::uint64_t n = 0;
            if (!sim::parseDecimalU64(arg.substr(7), n) || n < 1 ||
                n > UINT_MAX) {
                fatal("bench_speed: --reps must be an integer in [1, " +
                      std::to_string(UINT_MAX) + "]");
            }
            reps = static_cast<unsigned>(n);
        } else if (arg == "--profile") {
            profileMode = true;
        } else if (!arg.empty() && arg[0] != '-' && filter.empty()) {
            filter = arg;
        } else {
            fatal("bench_speed: unknown argument '" + arg + "'");
        }
    }

    // --profile: aggregate the instrumented phases across the sweep
    // and print the phase table instead of writing BENCH_speed.json --
    // slot accumulation at every span close is measurable overhead, so
    // a profiled run must never become the committed speed baseline.
    std::optional<obs::ProfileSession> profile;
    if (profileMode)
        profile.emplace();

    bench::banner("Speed",
                  "Simulator hot-path throughput per host second "
                  "(the tracked optimization baseline, not a paper "
                  "figure)");

    const auto t0 = std::chrono::steady_clock::now();

    sim::BenchReport report("speed");
    report.scalar("horizon_sim_sec", 0.04);

    std::printf("  %-58s %8s %10s %9s %9s %8s\n", "cell", "wall ms",
                "Mevent/s", "kframe/s", "kround/s", "Macc/s");
    bench::rule(109);
    std::size_t ran = 0;
    for (const SpeedCell &cell : speedCells()) {
        if (!filter.empty()
            && cell.name().find(filter) == std::string::npos)
            continue;
        const sim::BenchReport::Metrics m = runCell(cell, reps);
        std::printf("  %-58s %8.1f %10.2f %9.1f %9.1f %8.2f\n",
                    cell.name().c_str(), metricOf(m, "wall_ms"),
                    metricOf(m, "sim_events_per_sec") / 1e6,
                    metricOf(m, "frames_per_sec") / 1e3,
                    metricOf(m, "probe_rounds_per_sec") / 1e3,
                    metricOf(m, "llc_accesses_per_sec") / 1e6);
        report.cell(cell.name(), m);
        ++ran;
    }
    bench::rule(109);

    const double elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    std::printf("  %zu cells x %u reps (best-of) in %.2f s host time\n",
                ran, reps, elapsed);
    if (ran == 0)
        fatal("bench_speed: filter '" + filter + "' matched no cell");

    if (profileMode) {
        // The cells all ran on this (the only) thread, so one drain
        // holds the whole sweep. Phases sorted by self time: the top
        // row is where an optimization PR should look first.
        const obs::ProfileDelta prof = obs::drainProfile();
        std::vector<std::size_t> ids;
        for (std::size_t id = 0; id < prof.size(); ++id)
            if (!prof[id].empty())
                ids.push_back(id);
        std::sort(ids.begin(), ids.end(),
                  [&prof](std::size_t a, std::size_t b) {
                      return prof[a].selfNs > prof[b].selfNs;
                  });
        std::uint64_t selfTotal = 0;
        for (std::size_t id : ids)
            selfTotal += prof[id].selfNs;
        std::printf("\n  %-24s %12s %10s %10s %7s\n", "phase", "count",
                    "total ms", "self ms", "share");
        bench::rule(70);
        for (std::size_t id : ids) {
            const obs::PhaseStats &s = prof[id];
            std::printf("  %-24s %12llu %10.2f %10.2f %6.1f%%\n",
                        obs::phaseName(id),
                        static_cast<unsigned long long>(s.count),
                        static_cast<double>(s.totalNs) * 1e-6,
                        static_cast<double>(s.selfNs) * 1e-6,
                        selfTotal ? 100.0 *
                                        static_cast<double>(s.selfNs) /
                                        static_cast<double>(selfTotal)
                                  : 0.0);
        }
        bench::rule(70);
        std::printf("  profiled run: BENCH_speed.json not written\n");
        return 0;
    }

    if (!filter.empty()) {
        std::printf("  filtered run: BENCH_speed.json not written\n");
        return 0;
    }
    report.scalar("elapsed_sec", elapsed);
    if (!report.write())
        return 1;
    std::printf("  wrote BENCH_speed.json\n");
    return 0;
}
