/**
 * @file
 * The multi-process shard layer of the campaign runtime: deterministic
 * grid slices, mergeable per-shard reports, and the merge validator.
 *
 * One machine's campaign is bounded by its cores; the shard layer
 * fans a grid out across processes (and machines):
 *
 *     campaign figD1 --shard=0/4 --report=s0.json
 *     campaign figD1 --shard=1/4 --report=s1.json   # elsewhere, maybe
 *     ...
 *     campaign --merge full.json s0.json s1.json s2.json s3.json
 *
 * Shard i/N runs cells {i, i+N, i+2N, ...} of the full grid. Cells
 * keep their *full-grid* indices, so their seeds (and
 * therefore their results) are bit-identical to an unsharded run; the
 * merged report is byte-identical to the report an unsharded
 * `--report` run writes, which the CI shard matrix verifies with cmp.
 *
 * The shard report is a sim::BenchReport with identity metadata (grid
 * name, campaign seed, grid size, shard spec) and one row-tagged cell
 * per grid cell recording its index and scenario seed. The merge
 * validator rejects, with a clear message: mixed grids/seeds/sizes,
 * inconsistent shard counts, duplicate or missing shards, rows
 * outside their shard's slice, duplicate or missing cell indices, and
 * rows whose recorded seed does not equal splitSeed(campaign seed,
 * index) -- the tamper/mismatch check.
 */

#ifndef PKTCHASE_RUNTIME_FABRIC_SHARD_HH
#define PKTCHASE_RUNTIME_FABRIC_SHARD_HH

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
 * Build the mergeable campaign report for @p results, which must be
 * the cells of @p shard's slice of the @p gridSize-cell grid named
 * @p gridName, run with @p campaignSeed. An unsharded run passes
 * ShardSpec{0, 1}; the merge tool re-emits exactly that form, which
 * is what makes merged-vs-unsharded byte-comparable.
 */
sim::BenchReport campaignReport(const std::string &gridName,
                                std::uint64_t campaignSeed,
                                std::size_t gridSize,
                                const ShardSpec &shard,
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

#endif // PKTCHASE_RUNTIME_FABRIC_SHARD_HH
