/**
 * @file
 * Fig. 15: normalized memory read/write traffic and LLC miss rate for
 * {file copy, TCP recv, Nginx} under {no DDIO, DDIO, adaptive
 * partitioning}. Paper: DDIO and the defense both cut memory traffic
 * versus no-DDIO, with the defense within ~2% of DDIO.
 *
 * Formats the registered fig15 grid, normalizing each workload's rows
 * to its no-DDIO cell. `campaign fig15 --report=R` writes the same
 * cells as JSON.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "runtime/sweep.hh"
#include "workload/defense_eval.hh"

using namespace pktchase;

int
main()
{
    bench::banner("Fig. 15",
                  "Memory traffic and LLC miss rate, normalized to the "
                  "no-DDIO baseline (paper: DDIO and adaptive both "
                  "reduce traffic; defense within ~2% of DDIO)");

    workload::registerDefenseScenarios();
    const auto results = runtime::sweep("fig15");

    const struct { const char *label, *slug; } workloads[] = {
        {"file-copy", "filecopy"},
        {"tcp-recv", "tcprecv"},
        {"nginx", "nginx"},
    };
    for (const auto &wl : workloads) {
        const std::string prefix =
            std::string("fig15/") + wl.slug + "/ring.none+";
        const runtime::ScenarioResult &base =
            bench::byName(results, prefix + "cache.no-ddio");
        const double base_rd = base.value("mem_read_blocks");
        const double base_wr = base.value("mem_write_blocks");
        std::printf("  -- %s --\n", wl.label);
        std::printf("  %-24s %12s %12s %12s\n", "cache policy",
                    "norm. reads", "norm. writes", "miss rate");
        bench::rule(66);
        for (const char *spec :
             {"cache.no-ddio", "cache.ddio", "cache.adaptive"}) {
            const runtime::ScenarioResult &r =
                bench::byName(results, prefix + spec);
            std::printf("  %-24s %12.3f %12.3f %12.4f\n", spec,
                        base_rd > 0 ? r.value("mem_read_blocks") / base_rd
                                    : 0.0,
                        base_wr > 0 ? r.value("mem_write_blocks") / base_wr
                                    : 0.0,
                        r.value("llc_miss_rate"));
        }
        std::printf("\n");
    }
    return 0;
}
