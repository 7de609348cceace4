/**
 * @file
 * The campaign's mergeable reports: deterministic grid slices, the
 * two report formats a run emits (campaign metrics and the phase
 * profile), and the merge validator that reassembles a shard set.
 *
 * One machine's campaign is bounded by its cores; shards fan a grid
 * out across processes (and machines):
 *
 *     campaign figD1 --shard=0/4 --report=s0.json
 *     campaign figD1 --shard=1/4 --report=s1.json   # elsewhere, maybe
 *     ...
 *     campaign --merge full.json s0.json s1.json s2.json s3.json
 *     campaign figD1 --shard=0/2 --profile=p0.json  # profiles too
 *
 * Shard i/N runs cells {i, i+N, i+2N, ...} of the full grid. Cells
 * keep their *full-grid* indices, so their seeds (and therefore their
 * results) are bit-identical to an unsharded run; the merged report
 * is byte-identical to the report an unsharded run writes, which the
 * CI shard matrix verifies with cmp.
 *
 * Both formats are a sim::BenchReport with the identity metas (grid
 * name, campaign seed, grid size, shard spec), an obs::RunManifest and
 * one row-tagged cell per grid cell recording its index and scenario
 * seed:
 *  - bench "campaign": each cell's metrics, and the hostname-free
 *    build manifest, so shards from different runners of one commit
 *    merge byte-identically.
 *  - bench "profile": a "clock" meta ("wall", or "ticks:N" under the
 *    deterministic test clock) and a manifest with hostname and thread
 *    count, since profile numbers are host-bound. Each cell carries,
 *    for every phase with spans in it, <phase>.count/.total_ns/
 *    .self_ns/.min_ns/.max_ns and the nonzero log2 histogram buckets
 *    <phase>.h<b> (bucket b covers [2^(b-1), 2^b) ns; b = 0 is exactly
 *    0 ns). The top-level scalars are the aggregate phase table --
 *    the cell fields summed (min/max folded), plus <phase>.total_sec/
 *    .self_sec, <phase>.self_share (share of the report's total self
 *    time) and <phase>.throughput_hz (spans per inclusive second),
 *    which tools/bench_compare.py gates -- then trace.dropped_events
 *    and, when the session writes a trace, per-thread
 *    trace.dropped.t<tid> counts in ascending tid order.
 *
 * One in-memory report backs both: the emit path fills it from
 * campaign results, the merge fills it from the parsed shard files,
 * and one writer serializes it. The profile table is recomputed from
 * the rows on every write, so a merged report is byte-identical to
 * the unsharded one whenever its rows are (which the tick clock makes
 * testable). Phases are ordered by name everywhere: phase *ids* are
 * first-use registration order, which thread interleaving may permute.
 *
 * The merge validator rejects, with a one-line message and without
 * writing anything: malformed JSON or rows (a hex value that is not a
 * finite double, an index that is not a non-negative integer), mixed
 * grids/seeds/sizes/bench types,
 * inconsistent shard counts, duplicate or missing shards, rows outside
 * their shard's slice, duplicate or missing cell indices, rows whose
 * recorded seed is not splitSeed(campaign seed, index) -- the
 * tamper/mismatch check -- and shards of different builds (git sha);
 * profile shards must also share one clock, host and thread count.
 */

#ifndef PKTCHASE_RUNTIME_REPORT_HH
#define PKTCHASE_RUNTIME_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scenario.hh"
#include "sim/bench_report.hh"

namespace pktchase::runtime
{

/** One process's slice of a campaign grid: shard index/count. */
struct ShardSpec
{
    unsigned index = 0; ///< This process's shard, in [0, count).
    unsigned count = 1; ///< Total shards; 1 = unsharded.
};

/**
 * Parse "i/N" (e.g. "0/4") into @p out. Returns false on junk,
 * count == 0, or index >= count.
 */
bool parseShardSpec(const std::string &text, ShardSpec &out);

/** The full-grid indices of @p spec's slice: {i, i+N, ...} < gridSize,
 *  strictly increasing (the shape Campaign::run(grid, subset) wants). */
std::vector<std::size_t> shardIndices(std::size_t gridSize,
                                      const ShardSpec &spec);

/**
 * The campaign report for @p results, which must be the cells of
 * @p shard's slice of the @p gridSize-cell grid named @p gridName,
 * run with @p campaignSeed. An unsharded run passes ShardSpec{0, 1};
 * the merge re-emits exactly that form, which is what makes
 * merged-vs-unsharded byte-comparable.
 */
sim::BenchReport campaignReport(const std::string &gridName,
                                std::uint64_t campaignSeed,
                                std::size_t gridSize,
                                const ShardSpec &shard,
                                const std::vector<ScenarioResult> &results);

/**
 * The profile report for @p results (whose ScenarioResult::profile
 * the campaign drain filled): the manifest records this host and
 * @p threads, @p clockTag is the session's clock, and the trace drop
 * counts come from the live obs::ProfileSession (0 / none unless it
 * writes a trace), per thread in ascending tid order.
 */
sim::BenchReport profileReport(const std::string &gridName,
                               std::uint64_t campaignSeed,
                               std::size_t gridSize,
                               const ShardSpec &shard, unsigned threads,
                               const std::string &clockTag,
                               const std::vector<ScenarioResult> &results);

/**
 * Merge the shard reports at @p inputs into one full-grid report at
 * @p outPath, validating the shard set first. Returns the empty
 * string on success, otherwise a one-line description of why the
 * shard set was rejected (nothing is written in that case).
 */
std::string mergeShardReports(const std::vector<std::string> &inputs,
                              const std::string &outPath);

} // namespace pktchase::runtime

#endif // PKTCHASE_RUNTIME_REPORT_HH
