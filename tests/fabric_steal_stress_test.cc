/**
 * @file
 * Cell-level stress test for the campaign scheduler, built to run
 * under ThreadSanitizer (CI's tsan job). The name dates from the
 * work-stealing fabric it was first written against; the checks now
 * target the shared-cursor scheduler. Skewed monolithic grids -- a few
 * cells far heavier than the rest -- run at threads=4 and must:
 *
 *  - merge to a report byte-identical to the serial run, per-cell
 *    counter deltas included;
 *  - run a subset (shard slice) bit-identically to the same cells of
 *    a full run.
 *
 * The task-level case lives in task_steal_stress_test.cc.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/campaign.hh"
#include "runtime/scenario.hh"

namespace
{

using namespace pktchase;

constexpr unsigned kThreads = 4;

/**
 * A skewed monolithic grid: cells whose index is a multiple of 5 draw
 * 100x the randomness (so they run much longer), concentrating work
 * the way the adaptive-partition cells do in the real grids.
 */
std::vector<runtime::Scenario>
skewedCellGrid(std::size_t cells)
{
    std::vector<runtime::Scenario> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        grid.push_back({"skew/" + std::to_string(i),
            [i](runtime::ScenarioContext &ctx) {
                const int draws = (i % 5 == 0) ? 100'000 : 1'000;
                double acc = 0.0;
                for (int k = 0; k < draws; ++k)
                    acc += ctx.rng.nextDouble();
                runtime::ScenarioResult r;
                r.set("acc", acc);
                return r;
            }});
    }
    return grid;
}

TEST(CampaignStress, SkewedCellsMergeByteIdenticalToSerial)
{
    const std::size_t cells = 40;
    const std::uint64_t seed = 0xFAB41C;

    runtime::CampaignConfig serial;
    serial.threads = 1;
    serial.seed = seed;
    const auto ref = runtime::Campaign(serial).run(skewedCellGrid(cells));

    runtime::CampaignConfig parallel;
    parallel.threads = kThreads;
    parallel.seed = seed;
    runtime::Campaign c(parallel);
    const auto out = c.run(skewedCellGrid(cells));

    EXPECT_EQ(c.stats().threadsUsed, kThreads);
    ASSERT_EQ(out.size(), ref.size());
    EXPECT_EQ(runtime::formatReport(out), runtime::formatReport(ref));

    // Per-cell counters obey the same contract.
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i].counters.size(), ref[i].counters.size());
        for (std::size_t k = 0; k < out[i].counters.size(); ++k) {
            EXPECT_EQ(out[i].counters[k].first, ref[i].counters[k].first);
            EXPECT_EQ(out[i].counters[k].second,
                      ref[i].counters[k].second);
        }
    }
}

/** Subset (shard-slice) runs are bit-identical to the same cells of a
 *  full run, at any thread count. */
TEST(CampaignStress, SubsetRunMatchesFullRunCells)
{
    const std::size_t cells = 30;

    runtime::CampaignConfig cfg;
    cfg.threads = 1;
    cfg.seed = 77;
    const auto full = runtime::Campaign(cfg).run(skewedCellGrid(cells));

    std::vector<std::size_t> slice;
    for (std::size_t i = 1; i < cells; i += 3)
        slice.push_back(i);

    runtime::CampaignConfig par = cfg;
    par.threads = kThreads;
    runtime::Campaign c(par);
    const auto out = c.run(skewedCellGrid(cells), slice);

    ASSERT_EQ(out.size(), slice.size());
    for (std::size_t k = 0; k < slice.size(); ++k) {
        EXPECT_EQ(out[k].index, slice[k]);
        EXPECT_EQ(runtime::formatReport({out[k]}),
                  runtime::formatReport({full[slice[k]]}));
    }
}

} // namespace
