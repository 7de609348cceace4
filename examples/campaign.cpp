/**
 * @file
 * Campaign runtime demo: list the registered scenario grids, run a
 * reduced defense sweep in parallel, and prove the determinism
 * contract by diffing the merged report of a 1-thread run against a
 * 4-thread run of the same campaign seed.
 *
 * Build & run:  ./build/examples/campaign
 *
 * With a grid name, run any registered grid instead and print its
 * full merged report -- every experiment (and every defense cell in
 * it) is reachable from the command line through the registries.
 * Flags control the worker count and the campaign seed:
 *
 *     ./build/examples/campaign fig16x
 *     ./build/examples/campaign figD1 --threads=1 --seed=7
 *     ./build/examples/campaign --list
 *     ./build/examples/campaign fig7q --trace=trace.json
 *
 * Multi-process sharding: --shard=i/N runs the deterministic slice
 * {i, i+N, ...} of the grid and --report writes the mergeable
 * campaign report; --merge validates and reassembles a shard set into
 * the full-grid report, byte-identical to an unsharded --report run:
 *
 *     ./build/examples/campaign figD1 --shard=0/4 --report=s0.json
 *     ...                              --shard=3/4 --report=s3.json
 *     ./build/examples/campaign --merge full.json s0.json ... s3.json
 *
 * Profiling and tracing share one in-process obs::ProfileSession,
 * opened for any of --profile, --trace and --progress=rich.
 * --profile=out.json writes the per-phase / per-cell profile report
 * (see runtime/report.hh); profile reports shard and --merge exactly
 * like campaign reports. --progress=rich adds the hottest phase's
 * self-time share to the live progress line. --trace=out.json writes
 * every span as Chrome trace-event JSON, and --trace-buffer=N caps the
 * spans kept per thread; overflow drops spans, counted in the trace,
 * on stderr, and in the profile report's trace.dropped.* scalars.
 * PKTCHASE_PROFILE_TICKS=N swaps the wall clock of both for the
 * deterministic N-ns-per-query test clock. A report, profile or trace
 * that cannot be written completely fails the command (exit 1).
 *
 * --threads=0 (the default) resolves like the benches: the
 * PKTCHASE_THREADS environment variable, else max(4, hardware).
 * Reports are bit-identical across thread counts at a fixed seed --
 * CI diffs --threads=1 against the default to prove it, and
 * --trace never perturbs the report (spans observe wall-clock only).
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/profile.hh"
#include "runtime/registry.hh"
#include "runtime/report.hh"
#include "runtime/sweep.hh"
#include "sim/json.hh"
#include "workload/attack_eval.hh"
#include "workload/defense_eval.hh"
#include "workload/detect_eval.hh"

using namespace pktchase;

namespace
{

/** Flags accumulated by parseFlag(). */
struct Options
{
    runtime::SweepOptions sweep;
    bool seed_set = false;
    bool list = false;
    bool merge = false;
    std::string trace_path;
    std::string report_path;
    std::string profile_path;
    std::uint64_t trace_buffer = 0; ///< 0: the session's default cap.
    runtime::ShardSpec shard; ///< Defaults to the unsharded 0/1.
    bool shard_set = false;
};

/** Parse one "--flag[=value]" into @p opt; false on junk. */
bool
parseFlag(const std::string &arg, Options &opt)
{
    std::uint64_t value = 0;
    const std::string threads = "--threads=";
    const std::string seed = "--seed=";
    const std::string trace = "--trace=";
    const std::string shard = "--shard=";
    const std::string report = "--report=";
    if (arg.rfind(threads, 0) == 0) {
        if (!sim::parseDecimalU64(arg.substr(threads.size()), value) ||
            value > std::numeric_limits<unsigned>::max())
            return false;
        opt.sweep.threads = static_cast<unsigned>(value);
        return true;
    }
    if (arg.rfind(seed, 0) == 0) {
        if (!sim::parseDecimalU64(arg.substr(seed.size()), value))
            return false;
        opt.sweep.seed = value;
        opt.seed_set = true;
        return true;
    }
    if (arg.rfind(trace, 0) == 0) {
        opt.trace_path = arg.substr(trace.size());
        return !opt.trace_path.empty();
    }
    const std::string profile = "--profile=";
    if (arg.rfind(profile, 0) == 0) {
        opt.profile_path = arg.substr(profile.size());
        return !opt.profile_path.empty();
    }
    const std::string tracebuf = "--trace-buffer=";
    if (arg.rfind(tracebuf, 0) == 0) {
        if (!sim::parseDecimalU64(arg.substr(tracebuf.size()), value) ||
            value == 0)
            return false;
        opt.trace_buffer = value;
        return true;
    }
    const std::string progress = "--progress=";
    if (arg.rfind(progress, 0) == 0) {
        const std::string mode = arg.substr(progress.size());
        if (mode == "rich") {
            opt.sweep.richProgress = true;
            return true;
        }
        if (mode == "plain") {
            opt.sweep.richProgress = false;
            return true;
        }
        return false;
    }
    if (arg.rfind(shard, 0) == 0) {
        opt.shard_set = true;
        return runtime::parseShardSpec(arg.substr(shard.size()),
                                       opt.shard);
    }
    if (arg.rfind(report, 0) == 0) {
        opt.report_path = arg.substr(report.size());
        return !opt.report_path.empty();
    }
    if (arg == "--merge") {
        opt.merge = true;
        return true;
    }
    if (arg == "--list") {
        opt.list = true;
        return true;
    }
    if (arg == "--quiet") {
        opt.sweep.quiet = true;
        return true;
    }
    return false;
}

/** The registered grids with their one-line descriptions. */
void
printGrids(std::FILE *out)
{
    auto &reg = runtime::ScenarioRegistry::instance();
    std::fprintf(out, "registered scenario grids:\n");
    for (const std::string &name : reg.names())
        std::fprintf(out, "  %-8s %s\n", name.c_str(),
                     reg.description(name).c_str());
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [<grid>] [--threads=N] [--seed=S] "
                 "[--shard=i/N] [--report=out.json] "
                 "[--profile=out.json] [--trace=out.json] "
                 "[--trace-buffer=N] [--progress=rich|plain] "
                 "[--list] [--quiet]\n"
                 "       %s --merge <out.json> <shard.json>...\n",
                 argv0, argv0);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    workload::registerDefenseScenarios();
    workload::registerAttackScenarios();
    workload::registerDetectionScenarios();

    Options opt;
    std::string grid_name;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            if (!parseFlag(arg, opt))
                return usage(argv[0]);
        } else {
            positional.push_back(arg);
        }
    }

    if (opt.merge) {
        // campaign --merge <out.json> <shard.json>...
        if (positional.size() < 2)
            return usage(argv[0]);
        const std::string out = positional.front();
        const std::vector<std::string> inputs(positional.begin() + 1,
                                              positional.end());
        const std::string err =
            runtime::mergeShardReports(inputs, out);
        if (!err.empty()) {
            std::fprintf(stderr, "merge rejected: %s\n", err.c_str());
            return 1;
        }
        std::printf("merged %zu shard(s) into %s\n", inputs.size(),
                    out.c_str());
        return 0;
    }

    if (positional.size() > 1)
        return usage(argv[0]);
    if (!positional.empty())
        grid_name = positional.front();

    if (opt.list) {
        printGrids(stdout);
        return 0;
    }

    if ((opt.shard_set || !opt.report_path.empty() ||
         !opt.profile_path.empty()) &&
        grid_name.empty()) {
        std::fprintf(stderr,
                     "--shard/--report/--profile need a grid to run\n");
        return usage(argv[0]);
    }
    if (opt.trace_buffer != 0 && opt.trace_path.empty()) {
        std::fprintf(stderr, "--trace-buffer needs --trace\n");
        return usage(argv[0]);
    }

    // One span session for --profile (report), --trace (Chrome trace)
    // and --progress=rich (live top-phase line); it spans the whole
    // run. Without any of them no session exists and every span
    // compiles down to a TLS-null check. PKTCHASE_PROFILE_TICKS=N
    // swaps the wall clock for the deterministic N-ns-per-query test
    // clock, which is what makes sharded --profile runs merge
    // byte-identically to an unsharded one in CI.
    std::optional<obs::ProfileSession> session;
    if (!opt.profile_path.empty() || !opt.trace_path.empty() ||
        opt.sweep.richProgress) {
        std::uint64_t ticks = 0;
        if (const char *env = std::getenv("PKTCHASE_PROFILE_TICKS")) {
            if (!sim::parseDecimalU64(env, ticks)) {
                std::fprintf(stderr,
                             "invalid PKTCHASE_PROFILE_TICKS "
                             "\"%s\"\n",
                             env);
                return 1;
            }
        }
        session.emplace(ticks, opt.trace_path,
                        opt.trace_buffer
                            ? static_cast<std::size_t>(opt.trace_buffer)
                            : obs::ProfileSession::kDefaultTraceCap);
    }
    // The trace is written last, once every worker has detached; a
    // trace that cannot be written fails the run.
    auto traceWritten = [&session] {
        return !session || session->writeTrace();
    };

    if (!grid_name.empty()) {
        if (!runtime::ScenarioRegistry::instance().contains(grid_name)) {
            std::fprintf(stderr, "unknown grid \"%s\"\n",
                         grid_name.c_str());
            printGrids(stderr);
            return 1;
        }
        const std::vector<runtime::Scenario> grid =
            runtime::ScenarioRegistry::instance().make(grid_name);
        runtime::SweepOptions sweep_opt = opt.sweep;
        sweep_opt.subset =
            runtime::shardIndices(grid.size(), opt.shard);
        if (opt.shard_set && sweep_opt.subset.empty()) {
            std::fprintf(stderr,
                         "shard %u/%u of the %zu-cell grid \"%s\" is "
                         "empty\n",
                         opt.shard.index, opt.shard.count, grid.size(),
                         grid_name.c_str());
            return 1;
        }
        const auto results = runtime::sweep(grid, sweep_opt);
        std::fputs(runtime::formatReport(results).c_str(), stdout);
        if (!opt.report_path.empty()) {
            const sim::BenchReport report = runtime::campaignReport(
                grid_name, sweep_opt.seed, grid.size(), opt.shard,
                results);
            if (!report.write(opt.report_path))
                return 1;
            std::printf("wrote %s (shard %u/%u, %zu cells)\n",
                        opt.report_path.c_str(), opt.shard.index,
                        opt.shard.count, results.size());
        }
        if (!opt.profile_path.empty()) {
            const unsigned threads = opt.sweep.threads
                                         ? opt.sweep.threads
                                         : runtime::defaultThreads();
            const sim::BenchReport report = runtime::profileReport(
                grid_name, sweep_opt.seed, grid.size(), opt.shard,
                threads, session->clockTag(), results);
            if (!report.write(opt.profile_path))
                return 1;
            std::printf("wrote %s (profile, shard %u/%u, %zu cells)\n",
                        opt.profile_path.c_str(), opt.shard.index,
                        opt.shard.count, results.size());
        }
        return traceWritten() ? 0 : 1;
    }

    printGrids(stdout);

    // A reduced Fig. 14 sweep (fewer requests than the bench) so the
    // demo finishes quickly; each cell still assembles its own
    // full-size testbed.
    std::printf("\nrunning a reduced fig14 sweep in parallel:\n");
    const auto grid = workload::fig14ThroughputGrid(800);

    runtime::SweepOptions fast = opt.sweep;
    if (fast.threads == 0)
        fast.threads = 4;
    if (!opt.seed_set)
        fast.seed = 42; // The demo's historical pinned seed.
    const auto parallel = runtime::sweep(grid, fast);

    for (const auto &r : parallel)
        std::printf("  %-40s %8.1f kreq/s  miss %.3f\n",
                    r.name.c_str(), r.value("kreq_per_sec"),
                    r.value("llc_miss_rate"));

    // Determinism contract: merged stats are bit-identical to the
    // serial run because each cell's randomness depends only on
    // (campaign seed, grid index) and the merge is by index --
    // whichever worker runs each cell.
    runtime::SweepOptions serial = fast;
    serial.threads = 1;
    serial.verbose = false;
    const auto reference = runtime::sweep(grid, serial);

    const bool identical = runtime::formatReport(parallel) ==
                           runtime::formatReport(reference);
    std::printf("\n4-thread report == 1-thread report: %s\n",
                identical ? "yes (bit-identical)" : "NO -- BUG");
    const bool wrote = traceWritten();
    return identical && wrote ? 0 : 1;
}
