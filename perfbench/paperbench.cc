/**
 * @file
 * paperbench: the paper-regeneration benchmark harness.
 *
 * One process builds a workload's cells with the registered grid
 * builders, concatenates them into one grid (as a whole-paper campaign
 * would schedule them) and runs that grid through runtime::Campaign
 * twice: at threads=1 and at threads=min(4, nproc). It repeats that
 * pair while the run's time budget allows and reports medians.
 *
 *   paperbench --workload server|attack|detect --seed S --seconds T
 *              --trace 0|1 --reference-dir DIR [--regen-reference]
 *              [--grids g1,g2,...] [--spans-out FILE] [--digests]
 *              [--setup-only]
 *
 * --setup-only stops after set-up (registry, grid construction,
 * reference loading) and prints the steady-clock instant it finished;
 * run.py spawns it several times to time process start to first unit,
 * which it reports as setup_s beside this harness's metrics.
 *
 * Every run gates correctness per cell: the serial and parallel report
 * rows must be byte-identical, every deterministic obs::Stat counter
 * must agree across passes, and at the reference seed the row's digest
 * must match the committed reference. The last stdout line is one JSON
 * object {correct, attempted, failed, metrics}: end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1.
 *
 * --trace 1 adds a unit pass (every (cell, task) unit serially inside
 * an obs::ProfileSession, with the harness's own span around each), a
 * wrapped parallel pass that times each unit on its worker, and the
 * layer probes of probes.hh. The timed passes never run with a profile
 * or trace session attached.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/profile.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "probes.hh"
#include "runtime/campaign.hh"
#include "runtime/registry.hh"
#include "runtime/scenario.hh"
#include "sim/stats.hh"
#include "workload/attack_eval.hh"
#include "workload/defense_eval.hh"
#include "workload/detect_eval.hh"

using namespace pktchase;

namespace
{

using Clock = std::chrono::steady_clock;

/** The seed whose per-cell digests are committed under reference/. */
constexpr std::uint64_t kReferenceSeed = 1;

struct WorkloadSpec
{
    const char *name;
    std::vector<std::string> grids;
    bool server; ///< Runs the ServerWorkload request model.
};

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> w = {
        {"server", {"fig14", "fig15", "fig16", "fig16x", "fig16q"}, true},
        {"attack", {"fig11", "fig13", "fig20", "fig7q"}, false},
        {"detect", {"figD1", "figD2"}, true},
    };
    return w;
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "paperbench: %s\n", msg.c_str());
    std::exit(2);
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

// ------------------------------------------------------------ options --

struct Options
{
    std::string workload;
    std::vector<std::string> grids; ///< Empty: the workload's grids.
    std::uint64_t seed = kReferenceSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string referenceDir;
    bool regenReference = false;
    bool digests = false; ///< Print each cell's digest (self-tests).
    bool setupOnly = false;
    std::string spansOut;
};

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

bool
parseUnsigned(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(s);
    return true;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg);
            return argv[++i];
        };
        std::uint64_t n = 0;
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--grids") {
            o.grids = splitCommas(value());
        } else if (arg == "--seed") {
            if (!parseUnsigned(value(), o.seed))
                die("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            if (!parseUnsigned(value(), n) || n == 0 || n > 3600)
                die("--seconds takes an integer in [1, 3600]");
            o.seconds = static_cast<double>(n);
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                die("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--reference-dir") {
            o.referenceDir = value();
        } else if (arg == "--regen-reference") {
            o.regenReference = true;
        } else if (arg == "--digests") {
            o.digests = true;
        } else if (arg == "--setup-only") {
            o.setupOnly = true;
        } else if (arg == "--spans-out") {
            o.spansOut = value();
        } else {
            die("unknown argument \"" + arg + "\"");
        }
    }
    if (o.workload.empty())
        die("--workload is required (server, attack or detect)");
    if (o.referenceDir.empty())
        die("--reference-dir is required");
    if (o.regenReference && o.seed != kReferenceSeed)
        die("--regen-reference needs --seed " +
            std::to_string(kReferenceSeed));
    return o;
}

// -------------------------------------------------------------- setup --

/** A workload's concatenated grid plus what the gate checks against. */
struct Setup
{
    std::vector<runtime::Scenario> grid;
    std::vector<std::string> gridNames; ///< Registry grids, in order.
    std::vector<std::size_t> gridOf;    ///< Cell -> gridNames index.
    std::vector<std::size_t> unitBase;  ///< Cell -> first unit index.
    std::size_t units = 0;
    bool haveReference = false;
    /** Per cell: (name, digest) from the reference file. */
    std::vector<std::pair<std::string, std::uint64_t>> reference;
};

std::string
referencePath(const Options &o)
{
    return o.referenceDir + "/" + o.workload + ".ref";
}

/** Reference file: "# comment" lines, then one "<index> <digest> <name>"
 *  line per cell. */
void
loadReference(const Options &o, Setup &s)
{
    std::ifstream in(referencePath(o));
    if (!in)
        die("missing reference " + referencePath(o) + " for seed " +
            std::to_string(kReferenceSeed) +
            " (regenerate with --regen-reference)");
    s.reference.assign(s.grid.size(), {"", 0});
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::size_t index = 0;
        std::string digest, name;
        if (!(ls >> index >> digest >> name) || index >= s.grid.size())
            continue; // A malformed row leaves its cell unmatched.
        s.reference[index] = {name, std::strtoull(digest.c_str(),
                                                  nullptr, 16)};
    }
    s.haveReference = true;
}

Setup
buildSetup(const Options &o, const std::vector<std::string> &grids)
{
    workload::registerDefenseScenarios();
    workload::registerAttackScenarios();
    workload::registerDetectionScenarios();
    const runtime::ScenarioRegistry &reg =
        runtime::ScenarioRegistry::instance();

    Setup s;
    s.gridNames = grids;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        if (!reg.contains(grids[g]))
            die("unknown grid \"" + grids[g] + "\"");
        for (runtime::Scenario &sc : reg.make(grids[g])) {
            runtime::validateScenario(sc);
            s.unitBase.push_back(s.units);
            s.units += sc.taskCount();
            s.gridOf.push_back(g);
            s.grid.push_back(std::move(sc));
        }
    }
    if (o.seed == kReferenceSeed && !o.regenReference)
        loadReference(o, s);
    return s;
}

// --------------------------------------------------------------- gate --

/** Per-cell correctness gate; a cell fails on its first mismatch. */
struct Gate
{
    std::vector<std::string> rows;   ///< First serial pass.
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
        counters;                    ///< First serial pass.
    std::vector<std::string> failure; ///< Empty while the cell passes.

    static std::string
    row(const runtime::ScenarioResult &r)
    {
        return runtime::formatReport({r});
    }

    void
    fail(std::size_t cell, const std::string &why)
    {
        if (failure[cell].empty())
            failure[cell] = why;
    }

    /** Take the first serial pass as the baseline, checking it against
     *  the reference when there is one. */
    void
    baseline(const Setup &s, const std::vector<runtime::ScenarioResult> &rs)
    {
        failure.assign(rs.size(), "");
        for (const runtime::ScenarioResult &r : rs) {
            rows.push_back(row(r));
            counters.push_back(r.counters);
        }
        if (!s.haveReference)
            return;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const auto &ref = s.reference[i];
            if (ref.first != rs[i].name || ref.second != fnv1a(rows[i]))
                fail(i, "differs from the committed reference");
        }
    }

    /** Every later pass must reproduce the baseline bytes and counters. */
    void
    check(const std::vector<runtime::ScenarioResult> &rs,
          const char *pass)
    {
        for (std::size_t i = 0; i < rs.size(); ++i) {
            if (row(rs[i]) != rows[i])
                fail(i, std::string(pass) + " report row differs");
            else if (rs[i].counters != counters[i])
                fail(i, std::string(pass) + " counters differ");
        }
    }

    std::size_t
    failed(const Setup &s) const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < failure.size(); ++i) {
            if (failure[i].empty())
                continue;
            ++n;
            std::fprintf(stderr, "cell failed: [%zu] %s: %s\n", i,
                         s.grid[i].name.c_str(), failure[i].c_str());
        }
        return n;
    }
};

/** "<index> <digest> <name>" of cell @p i's baseline row. */
std::string
digestLine(const Setup &s, const Gate &g, std::size_t i)
{
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fnv1a(g.rows[i])));
    return std::to_string(i) + ' ' + digest + ' ' + s.grid[i].name;
}

/** Act on --regen-reference and --digests once the baseline is set. */
void
emitDigests(const Options &o, const Setup &s, const Gate &g)
{
    if (o.digests)
        for (std::size_t i = 0; i < s.grid.size(); ++i)
            std::printf("digest %s\n", digestLine(s, g, i).c_str());
    if (!o.regenReference)
        return;
    std::ofstream out(referencePath(o));
    if (!out)
        die("cannot write " + referencePath(o));
    out << "# paperbench reference: workload " << o.workload << ", seed "
        << kReferenceSeed << ", " << s.grid.size()
        << " cells; FNV-1a 64 of each formatReport row\n";
    for (std::size_t i = 0; i < s.grid.size(); ++i)
        out << digestLine(s, g, i) << '\n';
    std::printf("wrote %s (%zu cells)\n", referencePath(o).c_str(),
                s.grid.size());
}

// ------------------------------------------------------------- passes --

struct Pass
{
    double wall = 0.0;
    std::vector<runtime::ScenarioResult> results;
    runtime::CampaignStats stats;
};

Pass
runPass(const std::vector<runtime::Scenario> &grid, unsigned threads,
        std::uint64_t seed)
{
    runtime::CampaignConfig cfg;
    cfg.threads = threads;
    cfg.seed = seed;
    runtime::Campaign campaign(cfg);
    Pass p;
    const Clock::time_point t0 = Clock::now();
    p.results = campaign.run(grid);
    p.wall = secondsBetween(t0, Clock::now());
    p.stats = campaign.stats();
    return p;
}

std::uint64_t
counterTotal(const std::vector<runtime::ScenarioResult> &rs,
             obs::Stat stat)
{
    std::uint64_t total = 0;
    for (const runtime::ScenarioResult &r : rs)
        total += r.counter(obs::statName(stat));
    return total;
}

// ------------------------------------------------------------- output --

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[96];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

// ------------------------------------------------------- traced run --

/** One (cell, task) unit of the traced unit pass. */
struct UnitSpan
{
    std::size_t cell = 0;
    std::size_t task = 0;
    double start = 0.0; ///< Seconds since the unit pass began.
    double end = 0.0;
    obs::StatSnapshot counters; ///< Delta over the unit.
};

struct UnitPass
{
    double wall = 0.0;
    std::vector<UnitSpan> spans;
    obs::ProfileDelta profile;
    obs::StatSnapshot counters; ///< Totals over every unit.
    std::vector<runtime::ScenarioResult> results;
};

/** Run every unit serially through runScenarioTask inside a profile
 *  session, with the harness's own span around each unit, then fold
 *  each cell as the campaign would. */
UnitPass
runUnitPass(const Setup &s, std::uint64_t seed)
{
    // Function-local: the phase table it registers into must exist.
    static const obs::ProfilePhase kUnitPhase{"bench.unit", "bench"};

    UnitPass u;
    obs::ProfileSession session;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < s.grid.size(); ++i) {
        const runtime::Scenario &sc = s.grid[i];
        std::vector<runtime::ScenarioResult> parts;
        for (std::size_t t = 0; t < sc.taskCount(); ++t) {
            obs::drainProfile();
            UnitSpan span;
            span.cell = i;
            span.task = t;
            const obs::StatSnapshot before = obs::snapshot();
            span.start = secondsBetween(t0, Clock::now());
            runtime::ScenarioResult r;
            {
                const obs::ScopedSpan scope(kUnitPhase);
                r = runtime::runScenarioTask(sc, i, seed, t);
            }
            span.end = secondsBetween(t0, Clock::now());
            span.counters = obs::snapshot() - before;
            r.counters = span.counters.toCounters();
            obs::mergeProfileInto(u.profile, obs::drainProfile());
            for (std::size_t k = 0; k < obs::kStatCount; ++k)
                u.counters.counts[k] += span.counters.counts[k];
            u.spans.push_back(span);
            parts.push_back(std::move(r));
        }
        u.results.push_back(
            runtime::foldScenarioParts(sc, i, std::move(parts)));
    }
    u.wall = secondsBetween(t0, Clock::now());
    return u;
}

/** The parallel pass with every run/runTask (and fold) wrapped in a
 *  timer; each unit writes only its own slot. */
struct WrappedPass
{
    Pass pass;
    std::vector<double> busy; ///< Per unit, seconds.
    double lastUnitEnd = 0.0; ///< Seconds since the pass began.
    double foldSeconds = 0.0;
};

WrappedPass
runWrappedPass(const Setup &s, unsigned threads, std::uint64_t seed)
{
    struct Slot
    {
        Clock::time_point start, end;
    };
    std::vector<Slot> slots(s.units);
    double foldSeconds = 0.0; // Folds run on the calling thread only.

    std::vector<runtime::Scenario> grid = s.grid;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        runtime::Scenario &sc = grid[i];
        const std::size_t base = s.unitBase[i];
        if (sc.decomposed()) {
            sc.runTask = [inner = sc.runTask, base,
                          &slots](runtime::TaskContext &t) {
                Slot &slot = slots[base + t.task];
                slot.start = Clock::now();
                runtime::ScenarioResult r = inner(t);
                slot.end = Clock::now();
                return r;
            };
            sc.fold = [inner = sc.fold, &foldSeconds](
                          const std::vector<runtime::ScenarioResult> &p) {
                const Clock::time_point t0 = Clock::now();
                runtime::ScenarioResult r = inner(p);
                foldSeconds += secondsBetween(t0, Clock::now());
                return r;
            };
        } else {
            sc.run = [inner = sc.run, base,
                      &slots](runtime::ScenarioContext &c) {
                Slot &slot = slots[base];
                slot.start = Clock::now();
                runtime::ScenarioResult r = inner(c);
                slot.end = Clock::now();
                return r;
            };
        }
    }

    WrappedPass w;
    const Clock::time_point t0 = Clock::now();
    w.pass = runPass(grid, threads, seed);
    for (const Slot &slot : slots) {
        w.busy.push_back(secondsBetween(slot.start, slot.end));
        w.lastUnitEnd =
            std::max(w.lastUnitEnd, secondsBetween(t0, slot.end));
    }
    w.foldSeconds = foldSeconds;
    return w;
}

void
writeSpans(const Options &o, const Setup &s, const UnitPass &u)
{
    std::ofstream out(o.spansOut);
    if (!out)
        die("cannot write " + o.spansOut);
    out << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
        << ", \"units\": [";
    char buf[64];
    for (std::size_t k = 0; k < u.spans.size(); ++k) {
        const UnitSpan &sp = u.spans[k];
        out << (k ? ",\n" : "\n") << "{\"grid\": \""
            << s.gridNames[s.gridOf[sp.cell]] << "\", \"index\": "
            << sp.cell << ", \"cell\": \"" << s.grid[sp.cell].name
            << "\", \"task\": " << sp.task;
        std::snprintf(buf, sizeof(buf), ", \"start_s\": %.9f", sp.start);
        out << buf;
        std::snprintf(buf, sizeof(buf), ", \"end_s\": %.9f", sp.end);
        out << buf << ", \"counters\": {";
        for (std::size_t c = 0; c < obs::kStatCount; ++c)
            out << (c ? ", \"" : "\"")
                << obs::statName(static_cast<obs::Stat>(c))
                << "\": " << sp.counters.counts[c];
        out << "}}";
    }
    out << "\n]}\n";
}

/** Busy seconds and unit count per registry grid, for humans. */
void
printGridBreakdown(const Setup &s, const UnitPass &u)
{
    std::vector<double> busy(s.gridNames.size(), 0.0);
    std::vector<std::size_t> units(s.gridNames.size(), 0);
    std::vector<std::size_t> cells(s.gridNames.size(), 0);
    for (std::size_t g : s.gridOf)
        ++cells[g];
    for (const UnitSpan &sp : u.spans) {
        busy[s.gridOf[sp.cell]] += sp.end - sp.start;
        ++units[s.gridOf[sp.cell]];
    }
    double total = 0.0;
    for (double b : busy)
        total += b;
    std::printf("per-grid breakdown (traced unit pass, serial):\n");
    std::printf("  %-8s %6s %6s %9s %6s\n", "grid", "cells", "units",
                "busy_s", "share");
    for (std::size_t g = 0; g < s.gridNames.size(); ++g)
        std::printf("  %-8s %6zu %6zu %9.3f %6.3f\n",
                    s.gridNames[g].c_str(), cells[g], units[g], busy[g],
                    total > 0.0 ? busy[g] / total : 0.0);
}

/** Phase totals of the unit pass, by phase name. */
struct PhaseTable
{
    std::map<std::string, obs::PhaseStats> byName;
    double selfTotalNs = 0.0;

    explicit PhaseTable(const obs::ProfileDelta &d)
    {
        for (std::size_t id = 0; id < d.size(); ++id) {
            if (d[id].empty())
                continue;
            byName[obs::phaseName(id)].merge(d[id]);
            selfTotalNs += static_cast<double>(d[id].selfNs);
        }
    }

    obs::PhaseStats
    get(const std::string &name) const
    {
        const auto it = byName.find(name);
        return it == byName.end() ? obs::PhaseStats{} : it->second;
    }

    double
    selfShare(const std::string &name) const
    {
        return selfTotalNs > 0.0
            ? static_cast<double>(get(name).selfNs) / selfTotalNs
            : 0.0;
    }

    /** Mean inclusive span time of @p name, in ns; 0 when absent. */
    double
    meanNs(const std::string &name) const
    {
        const obs::PhaseStats p = get(name);
        return p.count ? static_cast<double>(p.totalNs) /
                             static_cast<double>(p.count)
                       : 0.0;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);

    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloads())
        if (o.workload == w.name)
            spec = &w;
    if (!spec)
        die("unknown workload \"" + o.workload +
            "\" (server, attack or detect)");
    const std::vector<std::string> &grids =
        o.grids.empty() ? spec->grids : o.grids;

    // Set-up: registry, grid construction and reference loading. With
    // --setup-only the process stops here and prints the steady-clock
    // instant, so the caller can time process start to first unit.
    const Clock::time_point setupStart = Clock::now();
    const Setup s = buildSetup(o, grids);
    if (o.setupOnly) {
        std::printf("setup_done_ns %lld\n",
                    static_cast<long long>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count()));
        return 0;
    }
    const double setupS = secondsBetween(setupStart, Clock::now());

    const unsigned threads = std::min(4u, nproc());
    std::printf("workload %s: %zu grids, %zu cells, %zu units, seed "
                "%llu, threads 1 and %u\n",
                o.workload.c_str(), grids.size(), s.grid.size(), s.units,
                static_cast<unsigned long long>(o.seed), threads);
    std::printf("in-process setup %.1f us\n", setupS * 1e6);

    Gate gate;
    if (!o.trace) {
        std::vector<double> serial, parallel;
        std::uint64_t accesses = 0;
        const Clock::time_point start = Clock::now();
        double lastPair = 0.0;
        do {
            const Clock::time_point t0 = Clock::now();
            Pass sp = runPass(s.grid, 1, o.seed);
            if (serial.empty()) {
                gate.baseline(s, sp.results);
                accesses = counterTotal(sp.results, obs::Stat::LlcAccesses);
            } else {
                gate.check(sp.results, "serial");
            }
            Pass pp = runPass(s.grid, threads, o.seed);
            gate.check(pp.results, "parallel");
            serial.push_back(sp.wall);
            parallel.push_back(pp.wall);
            std::printf("pair %zu: serial %.3f s, parallel %.3f s\n",
                        serial.size(), sp.wall, pp.wall);
            lastPair = secondsBetween(t0, Clock::now());
        } while (secondsBetween(start, Clock::now()) + lastPair <=
                 o.seconds);
        emitDigests(o, s, gate);

        const double serialS = percentile(serial, 50.0);
        const std::size_t failed = gate.failed(s);
        printResult(s.grid.size(), failed,
                    {{"serial_s", serialS, "s"},
                     {"parallel_s", percentile(parallel, 50.0), "s"},
                     {"sim_accesses_per_s",
                      ratio(static_cast<double>(accesses), serialS),
                      "1/s"},
                     {"peak_rss_mb", peakRssMb(), "MB"}});
        return 0;
    }

    // ------------------------------------------------ traced run --
    const Pass sp = runPass(s.grid, 1, o.seed);
    gate.baseline(s, sp.results);
    emitDigests(o, s, gate);

    const UnitPass u = runUnitPass(s, o.seed);
    gate.check(u.results, "unit-pass");
    const WrappedPass wp = runWrappedPass(s, threads, o.seed);
    gate.check(wp.pass.results, "parallel");
    const perfbench::ProbeResults probes =
        perfbench::runLayerProbes(grids, o.seed, spec->server);

    if (!o.spansOut.empty())
        writeSpans(o, s, u);
    printGridBreakdown(s, u);

    std::vector<double> unitMs;
    for (const UnitSpan &span : u.spans)
        unitMs.push_back((span.end - span.start) * 1e3);
    std::sort(unitMs.begin(), unitMs.end());
    // Tail: the highest whole percentile with at least ten units
    // beyond it (p50 when the workload has fewer than twenty units).
    double tailPct = 50.0;
    for (int p = 99; p > 50; --p) {
        const double rank = std::ceil(p / 100.0 *
                                      static_cast<double>(unitMs.size()));
        if (static_cast<double>(unitMs.size()) - rank >= 10.0) {
            tailPct = p;
            break;
        }
    }
    const double tailRank =
        std::ceil(tailPct / 100.0 * static_cast<double>(unitMs.size()));
    std::printf("unit tail: p%.0f of %zu units, %.0f units beyond it\n",
                tailPct, unitMs.size(),
                static_cast<double>(unitMs.size()) - tailRank);

    double busy = 0.0;
    for (double b : wp.busy)
        busy += b;
    const double parallelS = wp.pass.wall;
    const double mergeMs =
        (wp.foldSeconds + std::max(0.0, parallelS - wp.lastUnitEnd)) * 1e3;

    const PhaseTable phases(u.profile);
    const double frames =
        static_cast<double>(u.counters.get(obs::Stat::FramesDelivered));
    const double llcAccesses =
        static_cast<double>(u.counters.get(obs::Stat::LlcAccesses));
    const double llcMisses =
        static_cast<double>(u.counters.get(obs::Stat::LlcMisses));
    const obs::PhaseStats deliver = phases.get("nic.deliver");
    const obs::PhaseStats walk = phases.get("llc.walk");

    std::printf("serial_s %.3f, traced unit pass %.3f s, wrapped "
                "parallel_s %.3f at %u threads\n",
                sp.wall, u.wall, parallelS, wp.pass.stats.threadsUsed);
    std::printf("testbed configs %zu; serve_us ddio %.2f adaptive %.2f\n",
                probes.testbedConfigs, probes.serveDdioUs,
                probes.serveAdaptiveUs);
    std::printf("phase self shares:");
    for (const auto &kv : phases.byName)
        std::printf(" %s=%.3f", kv.first.c_str(),
                    phases.selfShare(kv.first));
    std::printf("\n");

    const std::size_t failed = gate.failed(s);
    printResult(
        s.grid.size(), failed,
        {{"runtime.units", static_cast<double>(s.units), "count"},
         {"runtime.unit_p50_ms", percentile(unitMs, 50.0), "ms"},
         {"runtime.unit_tail_ms", percentile(unitMs, tailPct), "ms"},
         {"runtime.unit_max_ms", unitMs.back(), "ms"},
         {"runtime.efficiency",
          ratio(busy, wp.pass.stats.threadsUsed * parallelS), "ratio"},
         {"runtime.merge_ms", mergeMs, "ms"},
         {"runtime.steal_hit_ratio",
          ratio(static_cast<double>(wp.pass.stats.tasksStolen),
                static_cast<double>(wp.pass.stats.stealAttempts)),
          "ratio"},
         {"testbed.build_ms", probes.testbedBuildMs, "ms"},
         {"workload.serve_us", probes.serveUs, "us"},
         {"cache.cpu_read_ns", probes.cpuReadNs, "ns"},
         {"cache.cpu_read_adaptive_ns", probes.cpuReadAdaptiveNs, "ns"},
         {"cache.cpu_write_ns", probes.cpuWriteNs, "ns"},
         {"cache.dma_write_ns", probes.dmaWriteNs, "ns"},
         {"cache.accesses", llcAccesses, "count"},
         {"cache.hit_ratio",
          llcAccesses > 0.0 ? 1.0 - llcMisses / llcAccesses : 0.0,
          "ratio"},
         {"mem.translate_ns", probes.translateNs, "ns"},
         {"sim.zipf_ns", probes.zipfNs, "ns"},
         {"sim.event_ns", probes.eventNs, "ns"},
         {"sim.events",
          static_cast<double>(u.counters.get(obs::Stat::SimEvents)),
          "count"},
         {"nic.frames", frames, "count"},
         {"nic.deliver.self_share", phases.selfShare("nic.deliver"),
          "ratio"},
         {"nic.frame_ns", ratio(static_cast<double>(deliver.selfNs), frames),
          "ns"},
         {"nic.frames_per_batch",
          ratio(frames, static_cast<double>(deliver.count)), "count"},
         {"attack.probe_rounds",
          static_cast<double>(u.counters.get(obs::Stat::ProbeRounds)),
          "count"},
         {"llc.walk.self_share", phases.selfShare("llc.walk"), "ratio"},
         {"attack.walk_us",
          ratio(static_cast<double>(walk.totalNs),
                static_cast<double>(walk.count)) / 1e3,
          "us"},
         {"probe.chase-round.self_share",
          phases.selfShare("probe.chase-round"), "ratio"},
         {"probe.sample-round.self_share",
          phases.selfShare("probe.sample-round"), "ratio"},
         {"detect.epochs",
          static_cast<double>(u.counters.get(obs::Stat::DetectorEpochs)),
          "count"},
         {"detect.epoch.self_share", phases.selfShare("detect.epoch"),
          "ratio"},
         {"detect.epoch_ns", phases.meanNs("detect.epoch"), "ns"},
         {"obs.unattributed_share",
          phases.selfShare("bench.unit") + phases.selfShare("cell") +
              phases.selfShare("fabric.task"),
          "ratio"},
         {"obs.trace_overhead", ratio(u.wall, sp.wall) - 1.0, "ratio"}});
    return 0;
}
