/**
 * @file
 * Shared helpers for the reproduction benches: headers and simple
 * fixed-width table output so every bench prints rows comparable to
 * the paper's tables and figure series.
 */

#ifndef PKTCHASE_BENCH_BENCH_UTIL_HH
#define PKTCHASE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "defense/registry.hh"
#include "runtime/scenario.hh"
#include "sim/logging.hh"
#include "workload/defense_eval.hh"

namespace pktchase::bench
{

/**
 * Find a campaign cell result by name; fatal() when absent so a
 * renamed or reordered grid fails loudly instead of silently
 * mislabeling table rows.
 */
inline const runtime::ScenarioResult &
byName(const std::vector<runtime::ScenarioResult> &results,
       const std::string &name)
{
    for (const runtime::ScenarioResult &r : results)
        if (r.name == name)
            return r;
    fatal("no campaign result named '" + name + "'");
}

/** Print the standard bench banner. */
inline void
banner(const char *artifact, const char *description)
{
    std::printf("== Packet Chasing reproduction: %s ==\n", artifact);
    std::printf("%s\n\n", description);
}

/** Print a horizontal rule. */
inline void
rule(unsigned width = 72)
{
    for (unsigned i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Canonical names of a cell list, for printLatencyTable(). */
inline std::vector<std::string>
cellNames(const std::vector<defense::Cell> &cells)
{
    std::vector<std::string> names;
    names.reserve(cells.size());
    for (const defense::Cell &cell : cells)
        names.push_back(cell.name());
    return names;
}

/**
 * Print the standard latency-percentile table (the five
 * workload::kPercentileKeys columns plus a p99 delta against
 * @p base_p99) for the named cells, each looked up as
 * "<prefix>/<cell name>" -- the single source of the percentile
 * emission every latency bench shares.
 */
inline void
printLatencyTable(const std::vector<runtime::ScenarioResult> &results,
                  const std::string &prefix,
                  const std::vector<std::string> &cell_names,
                  double base_p99)
{
    std::printf("  %-44s", "cell");
    for (const std::string &key : workload::kPercentileKeys)
        std::printf(" %8s", key.c_str());
    std::printf("\n");
    rule(96);
    for (const std::string &name : cell_names) {
        // Rows are looked up by canonical cell name so a reordered
        // grid cannot silently mislabel a defense.
        const auto &r = byName(results, prefix + "/" + name);
        std::printf("  %-44s", name.c_str());
        for (const std::string &key : workload::kPercentileKeys)
            std::printf(" %8.3f", r.value(key));
        std::printf("  (p99 %+5.1f%%)\n",
                    100.0 * (r.value("p99") / base_p99 - 1.0));
    }
    rule(96);
}

} // namespace pktchase::bench

#endif // PKTCHASE_BENCH_BENCH_UTIL_HH
