/**
 * @file
 * The registered fig20 fingerprint grid as a performance bench:
 * closed-world accuracy per defense cell and NIC queue count (paper
 * Sec. V: 89.7% with DDIO, 86.5% without, and ~chance once a real
 * defense is on), plus the chase throughput that produced it.
 *
 * Emits BENCH_fingerprint.json (via sim::BenchReport) -- accuracy and
 * simulated probe rounds per cell plus host-side probe rounds/sec --
 * so the attacker pipeline's performance trajectory is tracked across
 * commits.
 *
 * Threads default to the machine; set PKTCHASE_THREADS to pin.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "runtime/registry.hh"
#include "runtime/sweep.hh"
#include "sim/bench_report.hh"
#include "workload/attack_eval.hh"

using namespace pktchase;

int
main()
{
    bench::banner("Fig. 20",
                  "Closed-world fingerprint accuracy x defense cell x "
                  "queue count (paper baseline: 89.7% DDIO / 86.5% "
                  "no-DDIO; defenses push toward 20% chance)");

    // Wrap each cell's task body to record wall time. The side
    // matrix has one slot per (cell, task), each written once by
    // whichever worker runs that unit, so the ScenarioResults stay
    // deterministic while the bench still gets host timings; a cell's
    // wall time is the sum of its tasks' (the serialized work, which
    // is what rounds/sec should be measured against).
    workload::registerAttackScenarios();
    std::vector<runtime::Scenario> grid =
        runtime::ScenarioRegistry::instance().make("fig20");
    std::vector<std::vector<double>> task_wall(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        task_wall[i].assign(grid[i].taskCount(), 0.0);
        auto inner = grid[i].runTask;
        grid[i].runTask = [inner, i,
                           &task_wall](runtime::TaskContext &t) {
            const auto t0 = std::chrono::steady_clock::now();
            runtime::ScenarioResult r = inner(t);
            task_wall[i][t.task] = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() -
                                       t0)
                                       .count();
            return r;
        };
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto results = runtime::sweep(grid);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    std::printf("  %-44s %9s %13s %12s\n", "cell", "accuracy",
                "probe rounds", "rounds/sec");
    bench::rule(82);
    std::vector<double> wall(results.size(), 0.0);
    for (std::size_t i = 0; i < task_wall.size(); ++i)
        for (double w : task_wall[i])
            wall[i] += w;
    double total_rounds = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const runtime::ScenarioResult &r = results[i];
        const double rounds = r.value("probe_rounds");
        total_rounds += rounds;
        std::printf("  %-44s %8.1f%% %13.0f %12.0f\n", r.name.c_str(),
                    r.value("accuracy") * 100.0, rounds,
                    wall[i] > 0.0 ? rounds / wall[i] : 0.0);
    }
    bench::rule(82);
    std::printf("  %zu cells in %.2f s host time; %.0f probe "
                "rounds/sec aggregate\n",
                results.size(), elapsed,
                elapsed > 0.0 ? total_rounds / elapsed : 0.0);

    sim::BenchReport report("fingerprint");
    report.scalar("elapsed_sec", elapsed);
    report.scalar("probe_rounds_per_sec",
                  elapsed > 0.0 ? total_rounds / elapsed : 0.0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const runtime::ScenarioResult &r = results[i];
        sim::BenchReport::Metrics metrics = r.metrics;
        metrics.emplace_back("probe_rounds_per_sec",
                             wall[i] > 0.0
                                 ? r.value("probe_rounds") / wall[i]
                                 : 0.0);
        report.cell(r.name, metrics);
    }
    if (!report.write())
        return 1;
    std::printf("  wrote BENCH_fingerprint.json\n");
    return 0;
}
