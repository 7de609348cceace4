/**
 * @file
 * Campaign front-end for benches and workload sweeps.
 *
 * runtime::sweep() is the one call a bench needs: it resolves the
 * worker-thread count (PKTCHASE_THREADS overrides the default), runs
 * the grid through a Campaign across worker threads, optionally
 * narrates progress, and returns merged results in grid order for the
 * caller to format into its paper-style table. A name-based overload
 * pulls the grid from the ScenarioRegistry so front-ends can expose
 * every registered experiment without knowing how to build any of
 * them. SweepOptions::subset restricts a run to a deterministic slice
 * of the grid -- the multi-process shard layer's entry point.
 */

#ifndef PKTCHASE_RUNTIME_SWEEP_HH
#define PKTCHASE_RUNTIME_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/campaign.hh"
#include "runtime/scenario.hh"

namespace pktchase::runtime
{

/** Options for sweep(); the defaults suit the benches. */
struct SweepOptions
{
    unsigned threads = 0;        ///< 0: PKTCHASE_THREADS or max(4, hw).
    std::uint64_t seed = 1;      ///< Campaign seed.
    bool verbose = true;         ///< Print the thread/cell/time banner.
    /** Suppress live progress. Progress also stays off when stderr is
     *  not a TTY (CI logs, redirections), so only interactive runs see
     *  the "cells done/total" line. */
    bool quiet = false;
    /** Rich progress (--progress=rich): the live line additionally
     *  shows the hottest profiled phase and its share of self time,
     *  accumulated from the per-cell profile drains as cells finish.
     *  Needs an active obs::ProfileSession to have anything to show
     *  (the campaign front-end opens one); same TTY/quiet gating as
     *  the plain line, and like it never touches the results. */
    bool richProgress = false;
    /** When non-empty: run only these full-grid indices (strictly
     *  increasing). Cells keep their full-grid seeds, so a sliced run
     *  is bit-identical to the same cells of a full run. */
    std::vector<std::size_t> subset;
};

/**
 * Run @p grid across worker threads and return merged results in grid
 * order (subset order when SweepOptions::subset is set). Deterministic
 * in everything except wall-clock timing.
 */
std::vector<ScenarioResult> sweep(const std::vector<Scenario> &grid,
                                  const SweepOptions &opt = SweepOptions{});

/** Run the registry grid named @p name; fatal when unregistered. */
std::vector<ScenarioResult> sweep(const std::string &name,
                                  const SweepOptions &opt = SweepOptions{});

} // namespace pktchase::runtime

#endif // PKTCHASE_RUNTIME_SWEEP_HH
