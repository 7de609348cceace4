/**
 * @file
 * The Campaign executor: run a scenario grid across worker threads
 * and merge the results deterministically.
 *
 * The schedulable unit is one (cell, task) pair: a monolithic cell is
 * one unit, a cell on the sub-cell decomposition contract
 * (Scenario::tasks/runTask/fold, see scenario.hh) is Scenario::tasks
 * units -- so a single heavy trial-loop cell spreads across workers
 * instead of bounding the makespan. Workers claim units in (cell,
 * task) order from one shared atomic cursor and write each result
 * into a preallocated slot. The thread that called run() folds a cell
 * from its slots, in task order, once the cell's last task has
 * finished, and places the folded result at its grid index. Because
 * every task's randomness derives only from (campaign seed, grid
 * index, task index) -- never from the worker that happened to run
 * it -- the fold input is ordered by task index, and the merge is by
 * grid index, a run with N threads is bit-identical to threads=1; the
 * determinism tests assert that byte-for-byte on the formatted
 * report.
 *
 * A campaign can also run a *subset* of a grid (the multi-process
 * shard layer's slice, see runtime/report.hh): cells keep their
 * full-grid indices, so a sharded cell is bit-identical to the same
 * cell in an unsharded run.
 */

#ifndef PKTCHASE_RUNTIME_CAMPAIGN_HH
#define PKTCHASE_RUNTIME_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/scenario.hh"

namespace pktchase::runtime
{

/** Campaign execution knobs. */
struct CampaignConfig
{
    /** Worker threads; 0 picks defaultThreads(). */
    unsigned threads = 0;

    /** Campaign seed every scenario stream is split from. */
    std::uint64_t seed = 1;

    /**
     * Called on the thread that called run(), once per cell as it is
     * folded, in completion order (NOT grid order -- completion order
     * depends on thread scheduling; only the merged results are
     * deterministic).
     */
    std::function<void(const ScenarioResult &)> onResult;
};

/** Execution counters of one run(). */
struct CampaignStats
{
    std::size_t scenariosRun = 0;
    /** Schedulable (cell, task) units run; == scenariosRun when no
     *  cell decomposes. */
    std::size_t tasksRun = 0;
    unsigned threadsUsed = 0;
    /** Always 0: workers claim units from one shared cursor, so no
     *  unit is ever stolen. Kept only because perfbench/paperbench.cc
     *  reads both for its runtime.steal_hit_ratio metric. */
    std::uint64_t tasksStolen = 0;
    std::uint64_t stealAttempts = 0;
    /** Wall-clock seconds for the whole grid (not deterministic). */
    double wallSeconds = 0.0;
};

/**
 * Runs scenario grids. Reusable: each run() is independent.
 */
class Campaign
{
  public:
    explicit Campaign(const CampaignConfig &cfg = CampaignConfig{});

    /**
     * Run every cell of @p grid and return the merged results, index
     * for index with @p grid (results[i] came from grid[i]).
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &grid);

    /**
     * Run only the cells of @p grid named by @p subset (strictly
     * increasing full-grid indices). Each cell is seeded with its
     * full-grid index, so results are bit-identical to the same cells
     * of an unsharded run. Returns results in @p subset order with
     * ScenarioResult::index holding the full-grid index.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &grid,
                                    const std::vector<std::size_t> &subset);

    /** Counters of the most recent run(). */
    const CampaignStats &stats() const { return stats_; }

    const CampaignConfig &config() const { return cfg_; }

  private:
    CampaignConfig cfg_;
    CampaignStats stats_;
};

/**
 * Worker-thread count used when CampaignConfig::threads == 0: the
 * PKTCHASE_THREADS environment variable when it is all digits and in
 * [1, UINT_MAX] (any other value warns and is ignored), otherwise
 * max(4, hardware concurrency) -- the Fig. 14 sweep is specified to
 * run across at least four workers.
 */
unsigned defaultThreads();

} // namespace pktchase::runtime

#endif // PKTCHASE_RUNTIME_CAMPAIGN_HH
