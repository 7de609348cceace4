/**
 * @file
 * Shared bench-summary emission: the one place that knows how a
 * BENCH_<name>.json artifact is serialized.
 *
 * Every metric is emitted twice: as a readable decimal and as a C99
 * hexfloat ("%a"), so performance-tracking tooling can diff artifacts
 * bit-exactly across commits the same way the golden tests diff
 * formatReport() output. The gated benches (bench_speed,
 * bench_fingerprint_accuracy) route their JSON through this helper
 * instead of hand-rolling fprintf blocks.
 *
 * The campaign shard layer reuses the same writer for its mergeable
 * per-shard reports: meta() records string-valued header fields (grid
 * name, shard spec, exact 64-bit seeds as strings -- doubles cannot
 * hold them), and the row-tagged cell() overload stamps each cell
 * with its full-grid index and scenario seed so a merge tool can
 * validate and reassemble shards bit-identically (see
 * runtime/report.hh).
 *
 * Lives in sim so every layer above (bench front-ends, workload
 * harnesses) can use it; cells are plain (name, metrics) pairs --
 * runtime::ScenarioResult::metrics is exactly the accepted shape.
 */

#ifndef PKTCHASE_SIM_BENCH_REPORT_HH
#define PKTCHASE_SIM_BENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hh"

namespace pktchase::sim
{

/**
 * Accumulates named scalars and cells, then writes
 * BENCH_<name>.json.
 */
class BenchReport
{
  public:
    using Metrics = std::vector<std::pair<std::string, double>>;

    /** @param name Artifact stem: BENCH_<name>.json. */
    explicit BenchReport(std::string name);

    /** Set a top-level scalar (insertion-ordered; last write wins). */
    void scalar(const std::string &key, double value);

    /**
     * Set a top-level string field (insertion-ordered; last write
     * wins). Emitted before the numeric scalars. Use for identity
     * metadata a double cannot carry exactly: grid names, shard
     * specs, 64-bit seeds.
     */
    void meta(const std::string &key, const std::string &value);

    /**
     * Override the provenance manifest embedded in the artifact.
     * Unset, write() stamps obs::RunManifest::host() -- every report
     * the repo emits records which build produced it. The campaign
     * shard layer overrides with the hostname-free
     * obs::RunManifest::build() so shard reports from different CI
     * runners of the same commit still merge byte-identically.
     */
    void manifest(const obs::RunManifest &m);

    /** Append one cell. @p metrics is copied. */
    void cell(const std::string &name, const Metrics &metrics);

    /**
     * Append one row-tagged cell: a cell that also records its
     * full-grid @p index and per-cell @p seed (emitted as a hex
     * string), the two fields the shard-merge protocol validates.
     */
    void cell(std::size_t index, std::uint64_t seed,
              const std::string &name, const Metrics &metrics);

    /**
     * Write the artifact. @p path overrides the default
     * "BENCH_<name>.json".
     * @return false (with a message on stderr) when the file cannot
     *         be written completely.
     */
    bool write(const std::string &path = "") const;

    const std::string &name() const { return name_; }

  private:
    struct Cell
    {
        std::string name;
        Metrics metrics;
        bool hasRow = false;     ///< index/seed tagged?
        std::size_t index = 0;   ///< Full-grid index (row cells).
        std::uint64_t seed = 0;  ///< Scenario seed (row cells).
    };

    std::string name_;
    obs::RunManifest manifest_;
    bool manifestSet_ = false;
    std::vector<std::pair<std::string, std::string>> metas_;
    Metrics scalars_;
    std::vector<Cell> cells_;
};

} // namespace pktchase::sim

#endif // PKTCHASE_SIM_BENCH_REPORT_HH
