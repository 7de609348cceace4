/**
 * @file
 * Scheduling-granularity bench for the sub-cell task decomposition:
 * times every (cell, task) unit of the two heaviest attacker grids
 * (fig20 fingerprint, fig13 chasing channel) serially, then models
 * the campaign makespan with an LPT (longest-processing-time) greedy
 * schedule at both cell and task granularity.
 *
 * The number that motivated the decomposition is max_task_sec: the
 * longest unit a worker can be handed. At cell granularity the tail
 * cell bounds the parallel campaign (ROADMAP item 1 measured a 1.56 s
 * fig20 cell under a ~2.5 s makespan); at task granularity the bound
 * is one trial.
 *
 * Emits BENCH_tasks.json (via sim::BenchReport): per-cell task
 * counts/serial totals/max task times plus the modelled makespans, so
 * tools/makespan_model.py can replay the schedule and bench_compare
 * can gate tasks_per_sec like the other tracked benches.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "runtime/scenario.hh"
#include "workload/attack_eval.hh"

using namespace pktchase;

namespace
{

/** Wall-clock seconds of one serial run of @p fn. */
template <typename Fn>
double
timeIt(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * LPT greedy makespan: longest unit first, each onto the least
 * loaded worker. Within 4/3 of optimal; the campaign's shared cursor
 * is the same greedy list schedule, in grid order instead of longest
 * first.
 */
double
lptMakespan(std::vector<double> times, unsigned workers)
{
    std::sort(times.begin(), times.end(), std::greater<double>());
    std::vector<double> load(workers > 0 ? workers : 1, 0.0);
    for (double t : times)
        *std::min_element(load.begin(), load.end()) += t;
    return *std::max_element(load.begin(), load.end());
}

} // namespace

int
main()
{
    bench::banner("task makespan",
                  "Serial (cell, task) unit timings for the fig20 and "
                  "fig13 grids, with LPT-modelled campaign makespans "
                  "at cell vs. task scheduling granularity");

    constexpr std::uint64_t kCampaignSeed = 1;

    std::vector<runtime::Scenario> grid =
        workload::fig20FingerprintGrid();
    {
        std::vector<runtime::Scenario> fig13 =
            workload::fig13ChannelGrid(600);
        for (runtime::Scenario &sc : fig13)
            grid.push_back(std::move(sc));
    }

    // Serial per-unit timings. The grid index passed through matters:
    // it is the scenario-seed split every task derives from.
    std::vector<double> cell_sec(grid.size(), 0.0);
    std::vector<double> cell_max_task(grid.size(), 0.0);
    std::vector<double> unit_sec;
    const auto bench_t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        for (std::size_t t = 0; t < grid[i].taskCount(); ++t) {
            const double sec = timeIt([&] {
                runtime::runScenarioTask(grid[i], i, kCampaignSeed, t);
            });
            unit_sec.push_back(sec);
            cell_sec[i] += sec;
            cell_max_task[i] = std::max(cell_max_task[i], sec);
        }
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               bench_t0)
                               .count();

    std::printf("  %-44s %6s %10s %13s\n", "cell", "tasks",
                "serial sec", "max task sec");
    bench::rule(80);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        std::printf("  %-44s %6zu %10.3f %13.3f\n",
                    grid[i].name.c_str(), grid[i].taskCount(),
                    cell_sec[i], cell_max_task[i]);
    }
    bench::rule(80);

    const double total_work = std::accumulate(
        cell_sec.begin(), cell_sec.end(), 0.0);
    const double max_task =
        *std::max_element(unit_sec.begin(), unit_sec.end());
    const double max_cell =
        *std::max_element(cell_sec.begin(), cell_sec.end());

    std::printf("  %zu units over %zu cells, %.2f s serial work; "
                "max task %.3f s vs max cell %.3f s\n\n",
                unit_sec.size(), grid.size(), total_work, max_task,
                max_cell);
    std::printf("  %-9s %16s %16s %12s\n", "workers",
                "cell makespan", "task makespan", "ideal");
    bench::rule(60);

    sim::BenchReport report("tasks");
    report.scalar("elapsed_sec", elapsed);
    report.scalar("tasks_per_sec",
                  elapsed > 0.0
                      ? static_cast<double>(unit_sec.size()) / elapsed
                      : 0.0);
    report.scalar("total_work_sec", total_work);
    report.scalar("max_task_sec", max_task);
    report.scalar("max_cell_sec", max_cell);
    for (unsigned w : {1u, 2u, 4u, 8u}) {
        const double cell_ms = lptMakespan(cell_sec, w);
        const double task_ms = lptMakespan(unit_sec, w);
        std::printf("  %-9u %14.3f s %14.3f s %10.3f s\n", w, cell_ms,
                    task_ms, total_work / w);
        char key[48];
        std::snprintf(key, sizeof(key), "makespan_cell_w%u_sec", w);
        report.scalar(key, cell_ms);
        std::snprintf(key, sizeof(key), "makespan_task_w%u_sec", w);
        report.scalar(key, task_ms);
    }
    bench::rule(60);

    for (std::size_t i = 0; i < grid.size(); ++i) {
        sim::BenchReport::Metrics metrics;
        metrics.emplace_back(
            "tasks", static_cast<double>(grid[i].taskCount()));
        metrics.emplace_back("serial_sec", cell_sec[i]);
        metrics.emplace_back("max_task_sec", cell_max_task[i]);
        report.cell(grid[i].name, metrics);
    }
    if (!report.write())
        return 1;
    std::printf("  wrote BENCH_tasks.json\n");
    return 0;
}
