/**
 * @file
 * Unit tests for the sub-cell task decomposition contract
 * (src/runtime/scenario.hh): seed derivation, validateScenario's
 * grid-wiring checks, fold ordering, the monolithic reference runner,
 * and the campaign-level guarantees -- threads=N == threads=1 ==
 * runScenarioMonolithic byte-for-byte, per-cell counter deltas equal
 * to the element-wise sum of task deltas, subsets, and the tasksRun
 * accounting.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stats.hh"
#include "runtime/campaign.hh"
#include "runtime/scenario.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace pktchase;

/**
 * A synthetic decomposed grid: cell i splits into 2 + (i % 3) tasks.
 * Task t pops an rng-dependent number of simulated events (so counter
 * deltas are task- and seed-dependent), reports partials (its own
 * index, a draw, the event count), and the fold packs them into
 * order-sensitive metrics -- any out-of-order or re-seeded task run
 * changes the folded report.
 */
std::vector<runtime::Scenario>
splitGrid(std::size_t cells)
{
    std::vector<runtime::Scenario> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        runtime::Scenario sc;
        sc.name = "split/cell" + std::to_string(i);
        sc.tasks = 2 + (i % 3);
        sc.runTask = [i](runtime::TaskContext &t) {
            EventQueue eq;
            const std::uint64_t n =
                5 * (t.task + 1) + t.rng.nextBounded(11);
            for (std::uint64_t k = 1; k <= n; ++k)
                eq.schedule(k, [] {});
            eq.runUntil(n + 1);
            obs::bump(obs::Stat::FramesDelivered, i + t.task);
            runtime::ScenarioResult r;
            r.set("task", static_cast<double>(t.task));
            r.set("draw", static_cast<double>(t.rng.nextBounded(97)));
            r.set("events", static_cast<double>(n));
            return r;
        };
        sc.fold = [](
            const std::vector<runtime::ScenarioResult> &parts) {
            runtime::ScenarioResult r;
            double events = 0.0, mix = 0.0;
            for (std::size_t t = 0; t < parts.size(); ++t) {
                // Order-sensitive mix: swapping any two parts (or
                // re-running a task under the wrong seed) changes it.
                mix = mix * 131.0 + parts[t].value("draw") +
                    parts[t].value("task");
                events += parts[t].value("events");
            }
            r.set("mix", mix);
            r.set("events", events);
            r.set("parts", static_cast<double>(parts.size()));
            return r;
        };
        grid.push_back(std::move(sc));
    }
    return grid;
}

TEST(TaskContract, TaskContextDerivesContractSeeds)
{
    const runtime::TaskContext t(7, 42, 3, 5);
    EXPECT_EQ(t.index, 7u);
    EXPECT_EQ(t.campaignSeed, 42u);
    EXPECT_EQ(t.scenarioSeed, runtime::splitSeed(42, 7));
    EXPECT_EQ(t.task, 3u);
    EXPECT_EQ(t.taskCount, 5u);
    EXPECT_EQ(t.taskSeed,
              runtime::splitSeed(runtime::splitSeed(42, 7), 3));
    // The rng stream starts at the task seed, matching a hand-built
    // Rng(taskSeed) draw for draw.
    Rng ref(t.taskSeed);
    runtime::TaskContext u(7, 42, 3, 5);
    EXPECT_EQ(u.rng.next(), ref.next());
}

TEST(TaskContract, MonolithicCellsReportTaskCountOne)
{
    runtime::Scenario sc("mono", [](runtime::ScenarioContext &) {
        return runtime::ScenarioResult{};
    });
    EXPECT_FALSE(sc.decomposed());
    EXPECT_EQ(sc.taskCount(), 1u);
    // tasks is ignored without runTask -- taskCount() stays 1.
    const auto grid = splitGrid(1);
    EXPECT_TRUE(grid[0].decomposed());
    EXPECT_EQ(grid[0].taskCount(), 2u);
}

TEST(TaskContractDeathTest, ValidateRejectsHalfWiredCells)
{
    runtime::Scenario both("both", [](runtime::ScenarioContext &) {
        return runtime::ScenarioResult{};
    });
    both.runTask = [](runtime::TaskContext &) {
        return runtime::ScenarioResult{};
    };
    both.fold = [](const std::vector<runtime::ScenarioResult> &) {
        return runtime::ScenarioResult{};
    };
    EXPECT_DEATH(runtime::validateScenario(both), "both");

    runtime::Scenario neither;
    neither.name = "neither";
    EXPECT_DEATH(runtime::validateScenario(neither), "neither");

    runtime::Scenario no_fold;
    no_fold.name = "no-fold";
    no_fold.runTask = [](runtime::TaskContext &) {
        return runtime::ScenarioResult{};
    };
    EXPECT_DEATH(runtime::validateScenario(no_fold), "fold");

    runtime::Scenario zero = splitGrid(1)[0];
    zero.tasks = 0;
    EXPECT_DEATH(runtime::validateScenario(zero), "tasks");

    runtime::Scenario plain_many("plain",
        [](runtime::ScenarioContext &) {
            return runtime::ScenarioResult{};
        });
    plain_many.tasks = 4;
    EXPECT_DEATH(runtime::validateScenario(plain_many), "runTask");
}

TEST(TaskContract, RunScenarioTaskUsesContractSeeds)
{
    const auto grid = splitGrid(3);
    // Task draws replay under a hand-built TaskContext stream.
    const runtime::ScenarioResult r =
        runtime::runScenarioTask(grid[2], 2, 9, 1);
    Rng ref(runtime::splitSeed(runtime::splitSeed(9, 2), 1));
    const std::uint64_t n = 5 * 2 + ref.nextBounded(11);
    EXPECT_EQ(r.value("events"), static_cast<double>(n));
    EXPECT_EQ(r.value("draw"),
              static_cast<double>(ref.nextBounded(97)));
}

TEST(TaskContractDeathTest, RunScenarioTaskBoundsChecks)
{
    const auto grid = splitGrid(1); // cell 0 has 2 tasks
    EXPECT_DEATH(runtime::runScenarioTask(grid[0], 0, 1, 2), "task");

    runtime::Scenario mono("mono", [](runtime::ScenarioContext &) {
        return runtime::ScenarioResult{};
    });
    EXPECT_DEATH(runtime::runScenarioTask(mono, 0, 1, 1), "task");
}

TEST(TaskContract, FoldReceivesPartsInTaskIndexOrder)
{
    const auto grid = splitGrid(1);
    std::vector<runtime::ScenarioResult> parts;
    for (std::size_t t = 0; t < grid[0].taskCount(); ++t)
        parts.push_back(runtime::runScenarioTask(grid[0], 0, 1, t));
    // Scramble arrival order; foldScenarioParts is handed the vector
    // already ordered by task index (the campaign accumulates by
    // index), so fold the ordered copy and compare with monolithic.
    const runtime::ScenarioResult folded = runtime::foldScenarioParts(
        grid[0], 0, std::move(parts));
    const runtime::ScenarioResult mono =
        runtime::runScenarioMonolithic(grid[0], 0, 1);
    EXPECT_EQ(folded.value("mix"), mono.value("mix"));
    EXPECT_EQ(folded.value("events"), mono.value("events"));
    EXPECT_EQ(folded.index, 0u);
    EXPECT_EQ(folded.name, "split/cell0");
}

TEST(TaskCampaign, ThreadsOneEqualsThreadsFourEqualsMonolithic)
{
    runtime::CampaignConfig serial_cfg;
    serial_cfg.threads = 1;
    serial_cfg.seed = 77;
    runtime::Campaign serial(serial_cfg);
    const auto ref = serial.run(splitGrid(9));
    EXPECT_EQ(serial.stats().scenariosRun, 9u);
    // Cells 0..8 decompose into 2+i%3 tasks: 2+3+4 repeated = 27.
    EXPECT_EQ(serial.stats().tasksRun, 27u);

    runtime::CampaignConfig par_cfg;
    par_cfg.threads = 4;
    par_cfg.seed = 77;
    runtime::Campaign par(par_cfg);
    const auto results = par.run(splitGrid(9));
    EXPECT_EQ(par.stats().tasksRun, 27u);

    EXPECT_EQ(runtime::formatReport(ref),
              runtime::formatReport(results));

    const auto grid = splitGrid(9);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const runtime::ScenarioResult mono =
            runtime::runScenarioMonolithic(grid[i], i, 77);
        EXPECT_EQ(ref[i].value("mix"), mono.value("mix")) << i;
        EXPECT_EQ(ref[i].value("events"), mono.value("events")) << i;
    }
}

TEST(TaskCampaign, PerCellCountersSumTaskDeltasAcrossThreadCounts)
{
    runtime::CampaignConfig serial_cfg;
    serial_cfg.threads = 1;
    serial_cfg.seed = 5;
    runtime::Campaign serial(serial_cfg);
    const auto ref = serial.run(splitGrid(7));

    runtime::CampaignConfig par_cfg;
    par_cfg.threads = 4;
    par_cfg.seed = 5;
    runtime::Campaign par(par_cfg);
    const auto par_res = par.run(splitGrid(7));

    const auto grid = splitGrid(7);
    ASSERT_EQ(ref.size(), par_res.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i].counters.size(), obs::kStatCount);
        for (std::size_t c = 0; c < obs::kStatCount; ++c) {
            EXPECT_EQ(ref[i].counters[c].second,
                      par_res[i].counters[c].second)
                << ref[i].name << " " << ref[i].counters[c].first;
        }
        // The cell's sim_events delta is the sum over its tasks
        // (every task pops its n events plus nothing else), and the
        // frames delta encodes sum(i + t): the element-wise-sum
        // contract, checked against the metric the fold computed.
        EXPECT_EQ(ref[i].counter("sim_events"),
                  static_cast<std::uint64_t>(ref[i].value("events")));
        std::uint64_t frames = 0;
        for (std::size_t t = 0; t < grid[i].taskCount(); ++t)
            frames += i + t;
        EXPECT_EQ(ref[i].counter("frames_delivered"), frames);
    }
}

TEST(TaskCampaign, SubsetRunsKeepFullGridTaskSeeds)
{
    runtime::CampaignConfig cfg;
    cfg.threads = 2;
    cfg.seed = 31;
    runtime::Campaign full(cfg);
    const auto all = full.run(splitGrid(8));

    runtime::Campaign sub(cfg);
    const std::vector<std::size_t> subset = {1, 4, 6};
    const auto some = sub.run(splitGrid(8), subset);
    ASSERT_EQ(some.size(), subset.size());
    EXPECT_EQ(sub.stats().scenariosRun, 3u);
    for (std::size_t k = 0; k < subset.size(); ++k) {
        EXPECT_EQ(some[k].index, subset[k]);
        EXPECT_EQ(some[k].name, all[subset[k]].name);
        EXPECT_EQ(some[k].value("mix"),
                  all[subset[k]].value("mix"));
        EXPECT_EQ(some[k].value("events"),
                  all[subset[k]].value("events"));
    }
}

TEST(TaskContract, SeriesRoundTripAndPurity)
{
    runtime::ScenarioResult r;
    r.setSeries("epoch", {1.0, 2.0, 3.0});
    r.setSeries("score", {0.5, 0.25, 0.125});
    EXPECT_EQ(r.seriesOf("epoch").size(), 3u);
    EXPECT_EQ(r.seriesOf("score")[2], 0.125);
    // Series never leak into the serialized report.
    r.index = 0;
    r.name = "series-cell";
    r.set("metric", 1.0);
    const std::string report = runtime::formatReport({r});
    EXPECT_EQ(report.find("epoch"), std::string::npos);
    EXPECT_NE(report.find("metric"), std::string::npos);
}

TEST(TaskContractDeathTest, MissingSeriesPanics)
{
    runtime::ScenarioResult r;
    r.setSeries("present", {1.0});
    EXPECT_DEATH(r.seriesOf("absent"), "absent");
}

} // namespace
