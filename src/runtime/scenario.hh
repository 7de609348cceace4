/**
 * @file
 * The Scenario abstraction: one independently runnable experiment cell.
 *
 * The paper's evaluation is a grid of (ring size x cache mode x ring
 * defense x workload x seed) cells, each of which assembles its own
 * Testbed and reports a handful of scalar metrics. A Scenario names one
 * such cell and owns everything it needs to run in isolation: the run
 * function builds a private Testbed, draws randomness only from the
 * ScenarioContext's Rng stream (split off the campaign seed with
 * splitmix64), and returns its metrics as a private stats shard
 * (ScenarioResult) -- no shared mutable state, which is what lets a
 * Campaign run cells on any number of threads with bit-identical
 * merged output.
 *
 * Sub-cell decomposition (opt-in): a cell whose work is a loop of
 * independent units -- fingerprint trials, covert-channel symbol
 * chunks, a matched attack/benign twin pair -- may expose that
 * structure instead of a monolithic run function. It reports
 * Scenario::tasks = K, runs task t under the derived seed
 * splitSeed(scenarioSeed, t), and provides a pure fold that
 * reassembles the K task results (in task-index order) into the
 * cell's single ScenarioResult. The contract:
 *
 *  - task t's randomness derives only from (campaign seed, grid
 *    index, t) -- never from the worker that ran it or from sibling
 *    tasks, so tasks can run on any thread in any order;
 *  - fold is a pure function of the ordered task results (no I/O, no
 *    simulation, no Rng), so folding on the driver thread after an
 *    arbitrary completion order reproduces the serial loop exactly;
 *  - therefore threads=N == threads=1 == runScenarioMonolithic()
 *    bit-identically, whichever worker runs each task -- the same contract
 *    cells already obey, pushed one level down.
 *
 * The default (tasks = 1, no runTask) changes nothing: a monolithic
 * run function is scheduled as a single task.
 */

#ifndef PKTCHASE_RUNTIME_SCENARIO_HH
#define PKTCHASE_RUNTIME_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.hh"
#include "sim/rng.hh"

namespace pktchase::runtime
{

/**
 * Derive an independent 64-bit seed from @p seed and @p salt via the
 * splitmix64 output function. Used both for per-scenario streams
 * (salt = grid index) and for axis-pinned streams a grid builder wants
 * to share across cells that must see the same workload randomness
 * (e.g. Fig. 14 compares DDIO vs. adaptive under identical load).
 */
std::uint64_t splitSeed(std::uint64_t seed, std::uint64_t salt);

/**
 * Tag @p salt as an axis salt. Scenario indices occupy the low salt
 * space (ScenarioContext uses salt = grid index), so grid builders
 * that pin a stream to an axis must keep their salts disjoint from
 * every possible index -- this sets the top bit, which no realistic
 * grid size reaches.
 */
constexpr std::uint64_t
axisSalt(std::uint64_t salt)
{
    return salt | (std::uint64_t(1) << 63);
}

/**
 * One scenario's private stats shard: named scalar metrics in
 * insertion order, tagged with the cell's grid index and name.
 */
struct ScenarioResult
{
    std::size_t index = 0;     ///< Position in the campaign grid.
    std::string name;          ///< Cell name, e.g. "fig14/llc20/ddio".
    std::vector<std::pair<std::string, double>> metrics;

    /**
     * Simulator-side hot-path counters (obs::Stat) accumulated while
     * this cell ran, filled in by Campaign as the snapshot delta around
     * the cell's run function. Deliberately separate from @ref metrics
     * so formatReport() -- and every golden trace diffed against it --
     * is untouched by instrumentation. Counter values advance only with
     * simulated work, so they obey the same threads=N == threads=1
     * merge contract as the metrics.
     */
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /**
     * Named sample vectors, for task partials whose fold needs more
     * than scalars (e.g. the figD1 twins ship their per-epoch score
     * traces to the fold). Never serialized: formatReport() and the
     * shard report format see metrics only, so a decomposed cell's
     * final (folded) result must carry its findings in @ref metrics.
     */
    std::vector<std::pair<std::string, std::vector<double>>> series;

    /**
     * Per-phase wall-clock profile accumulated while this cell ran,
     * filled in by Campaign as the thread-local profile drain around
     * the cell's run function -- empty unless an obs::ProfileSession
     * is active (so results stay light by default). Indexed by
     * process-global phase id; like @ref counters it never reaches
     * formatReport() or the campaign metric report, preserving the
     * profiled == unprofiled byte-identity invariant. Unlike the
     * counters, the values are wall-clock and thus only deterministic
     * under the session's tick-clock mode.
     */
    obs::ProfileDelta profile;

    /** Look up a hot-path counter by name; fatal() when absent. */
    std::uint64_t counter(const std::string &key) const;

    /** Append one named sample vector. */
    void
    setSeries(const std::string &key, std::vector<double> values)
    {
        series.emplace_back(key, std::move(values));
    }

    /** Look up a sample vector by name; fatal() when absent. */
    const std::vector<double> &seriesOf(const std::string &key) const;

    /** Append one named metric. */
    void
    set(const std::string &key, double value)
    {
        metrics.emplace_back(key, value);
    }

    /** Look up a metric by name; fatal() when absent. */
    double value(const std::string &key) const;

    /** Whether a metric named @p key exists. */
    bool has(const std::string &key) const;
};

/**
 * Per-run context handed to a scenario's run function. The Rng is the
 * cell's private stream: its seed depends only on the campaign seed
 * and the cell's grid index, never on which worker runs the cell.
 */
struct ScenarioContext
{
    std::size_t index = 0;          ///< Grid index of this cell.
    std::uint64_t campaignSeed = 0; ///< The whole campaign's seed.
    std::uint64_t scenarioSeed = 0; ///< splitSeed(campaignSeed, index).
    Rng rng;                        ///< Seeded with scenarioSeed.

    ScenarioContext(std::size_t idx, std::uint64_t campaign_seed)
        : index(idx), campaignSeed(campaign_seed),
          scenarioSeed(splitSeed(campaign_seed, idx)),
          rng(scenarioSeed)
    {
    }
};

/**
 * Per-task context handed to a decomposed scenario's runTask
 * function. The Rng is the task's private stream: its seed depends
 * only on (campaign seed, grid index, task index), never on which
 * worker runs the task or in what order tasks complete.
 */
struct TaskContext
{
    std::size_t index = 0;          ///< Grid index of the cell.
    std::uint64_t campaignSeed = 0; ///< The whole campaign's seed.
    std::uint64_t scenarioSeed = 0; ///< splitSeed(campaignSeed, index).
    std::size_t task = 0;           ///< Task index within the cell.
    std::size_t taskCount = 1;      ///< The cell's Scenario::tasks.
    std::uint64_t taskSeed = 0;     ///< splitSeed(scenarioSeed, task).
    Rng rng;                        ///< Seeded with taskSeed.

    TaskContext(std::size_t idx, std::uint64_t campaign_seed,
                std::size_t task_idx, std::size_t task_count)
        : index(idx), campaignSeed(campaign_seed),
          scenarioSeed(splitSeed(campaign_seed, idx)), task(task_idx),
          taskCount(task_count),
          taskSeed(splitSeed(scenarioSeed, task_idx)), rng(taskSeed)
    {
    }
};

/** A named, independently runnable experiment cell. */
struct Scenario
{
    Scenario() = default;

    /** The classic monolithic cell: `{name, run}` grid builders. */
    Scenario(std::string cell_name,
             std::function<ScenarioResult(ScenarioContext &)> run_fn)
        : name(std::move(cell_name)), run(std::move(run_fn))
    {
    }

    std::string name;

    /** Monolithic run function (the classic path). Mutually exclusive
     *  with @ref runTask. */
    std::function<ScenarioResult(ScenarioContext &)> run;

    /**
     * Number of schedulable tasks this cell decomposes into. Only
     * meaningful with @ref runTask set; 1 with a plain @ref run.
     */
    std::size_t tasks = 1;

    /**
     * Run one task of a decomposed cell. Task results are partials:
     * whatever shape @ref fold needs (metrics and/or series), not the
     * cell's report-facing metrics.
     */
    std::function<ScenarioResult(TaskContext &)> runTask;

    /**
     * Reassemble the cell's result from its task results, handed over
     * in task-index order (parts[t] came from task t). Must be pure:
     * a function of the parts alone. The campaign fills the folded
     * result's index, name (when left empty), and counters (the
     * element-wise sum of the parts' counter deltas), so fold only
     * computes metrics.
     */
    std::function<ScenarioResult(const std::vector<ScenarioResult> &)>
        fold;

    /** Whether this cell uses the decomposition contract. */
    bool decomposed() const { return static_cast<bool>(runTask); }

    /** Schedulable units this cell contributes to a campaign. */
    std::size_t taskCount() const { return decomposed() ? tasks : 1; }
};

/**
 * fatal() unless @p s is a well-formed cell: exactly one of run /
 * runTask set, fold present iff runTask is, and tasks >= 1 (tasks > 1
 * requires runTask). Campaign validates every cell before scheduling
 * so a half-wired grid fails loudly, not with null std::function
 * throws from a worker thread.
 */
void validateScenario(const Scenario &s);

/**
 * Run one schedulable unit of @p s: task @p task under the contract
 * seeds for a decomposed cell, the whole run function (task must be
 * 0) otherwise. Returns the raw task result -- index/name/counters
 * are the caller's (Campaign's) business.
 */
ScenarioResult runScenarioTask(const Scenario &s, std::size_t index,
                               std::uint64_t campaignSeed,
                               std::size_t task);

/**
 * Fold the ordered task results of cell @p index into its final
 * ScenarioResult: applies Scenario::fold (or moves the single part of
 * a monolithic cell through), stamps index and name, and replaces the
 * counters with the element-wise sum of the parts' counters -- so a
 * decomposed cell's counter delta is exactly the sum of its tasks'
 * deltas, preserving the per-cell counter contract.
 */
ScenarioResult foldScenarioParts(const Scenario &s, std::size_t index,
                                 std::vector<ScenarioResult> &&parts);

/**
 * The monolithic reference run of one cell: every task in index
 * order on the calling thread, then the fold -- bit-identical to the
 * same cell through a Campaign at any thread count (sans counters,
 * which only Campaign attaches). This is what "the monolithic run" in
 * the decomposition contract means, and what golden tests pin.
 */
ScenarioResult runScenarioMonolithic(const Scenario &s,
                                     std::size_t index,
                                     std::uint64_t campaignSeed);

/**
 * Canonical byte-exact serialization of a result set (hexfloat
 * metrics, index order). Two runs merged identically produce the same
 * string; the determinism tests and `campaign` example diff this.
 */
std::string formatReport(const std::vector<ScenarioResult> &results);

} // namespace pktchase::runtime

#endif // PKTCHASE_RUNTIME_SCENARIO_HH
