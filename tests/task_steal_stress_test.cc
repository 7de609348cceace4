/**
 * @file
 * Task-level stress test for the campaign scheduler, built to run
 * under ThreadSanitizer (CI's tsan job). The name dates from the
 * work-stealing scheduler it was first written against; the checks
 * now target the shared-cursor scheduler. A skewed decomposed grid --
 * a few units far heavier than the rest, so workers finish their units
 * at very different rates -- runs at threads=4 for several rounds and
 * must:
 *
 *  - run every (cell, task) unit exactly once;
 *  - merge to a report byte-identical to the serial run, per-cell
 *    counter deltas included.
 *
 * The cell-level cases live in fabric_steal_stress_test.cc.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/campaign.hh"
#include "runtime/scenario.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace pktchase;

constexpr std::size_t kCells = 6;
constexpr std::size_t kTasksPerCell = 8;
constexpr unsigned kThreads = 4;

using Hits = std::array<std::atomic<unsigned>, kCells * kTasksPerCell>;

/**
 * A skewed decomposed grid: every task with t % kThreads == 0 pops
 * ~20000 simulated events, the rest ~50. Each task bumps its slot of
 * @p hits (exactly-once accounting) and runs rng-salted simulated
 * work, so the folded report and counters are sensitive to any
 * duplicated, dropped, or re-seeded task.
 */
std::vector<runtime::Scenario>
skewedTaskGrid(Hits *hits)
{
    std::vector<runtime::Scenario> grid;
    for (std::size_t i = 0; i < kCells; ++i) {
        runtime::Scenario sc;
        sc.name = "stress/cell" + std::to_string(i);
        sc.tasks = kTasksPerCell;
        sc.runTask = [i, hits](runtime::TaskContext &t) {
            if (hits)
                (*hits)[i * kTasksPerCell + t.task].fetch_add(
                    1, std::memory_order_relaxed);
            EventQueue eq;
            const std::uint64_t n = (t.task % kThreads == 0)
                ? 20000 + t.rng.nextBounded(64)
                : 50 + t.rng.nextBounded(16);
            for (std::uint64_t k = 1; k <= n; ++k)
                eq.schedule(k, [] {});
            eq.runUntil(n + 1);
            runtime::ScenarioResult r;
            r.set("events", static_cast<double>(n));
            r.set("draw",
                  static_cast<double>(t.rng.nextBounded(1009)));
            return r;
        };
        sc.fold = [](
            const std::vector<runtime::ScenarioResult> &parts) {
            runtime::ScenarioResult r;
            double events = 0.0, mix = 0.0;
            for (const runtime::ScenarioResult &p : parts) {
                events += p.value("events");
                mix = mix * 257.0 + p.value("draw");
            }
            r.set("events", events);
            r.set("mix", mix);
            return r;
        };
        grid.push_back(std::move(sc));
    }
    return grid;
}

TEST(CampaignStress, SkewedTasksRunExactlyOnceAndMergeByteIdentical)
{
    runtime::CampaignConfig serial_cfg;
    serial_cfg.threads = 1;
    serial_cfg.seed = 1234;
    runtime::Campaign serial(serial_cfg);
    const auto ref = serial.run(skewedTaskGrid(nullptr));
    const std::string ref_report = runtime::formatReport(ref);
    ASSERT_EQ(serial.stats().tasksRun, kCells * kTasksPerCell);

    Hits hits;
    for (int round = 0; round < 3; ++round) {
        for (auto &h : hits)
            h.store(0, std::memory_order_relaxed);

        runtime::CampaignConfig cfg;
        cfg.threads = kThreads;
        cfg.seed = 1234;
        runtime::Campaign campaign(cfg);
        const auto results = campaign.run(skewedTaskGrid(&hits));

        // Exactly once: no unit ran twice or was dropped.
        for (std::size_t u = 0; u < hits.size(); ++u)
            ASSERT_EQ(hits[u].load(std::memory_order_relaxed), 1u)
                << "unit " << u << " round " << round;
        EXPECT_EQ(campaign.stats().tasksRun, kCells * kTasksPerCell);

        // Byte-identical merged report and per-cell counter deltas,
        // whichever worker ran each task.
        EXPECT_EQ(ref_report, runtime::formatReport(results));
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(ref[i].counter("sim_events"),
                      results[i].counter("sim_events"))
                << ref[i].name;
        }
    }
}

} // namespace
