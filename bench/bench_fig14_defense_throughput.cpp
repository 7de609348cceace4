/**
 * @file
 * Fig. 14: Nginx throughput under adaptive partitioning vs. the DDIO
 * baseline, across LLC sizes {20, 11, 8} MB. Paper: <2% average loss,
 * worst case 2.7% at 20 MB.
 *
 * Formats the registered fig14 grid: all six (LLC size x cache mode)
 * cells execute concurrently on the runtime's worker threads (>= 4 by
 * default; override with PKTCHASE_THREADS) and merge deterministically
 * -- the table below is bit-identical at any thread count.
 * `campaign fig14 --report=R` writes the same cells as JSON.
 */

#include <cstdio>

#include "bench_util.hh"
#include "runtime/sweep.hh"
#include "workload/defense_eval.hh"

using namespace pktchase;
using namespace pktchase::workload;

int
main()
{
    bench::banner("Fig. 14",
                  "Nginx throughput: adaptive partitioning vs. DDIO "
                  "(paper: <2% average loss, max 2.7% at 20 MB)");

    registerDefenseScenarios();
    const auto results = runtime::sweep("fig14");

    std::printf("  %-14s %16s %16s %10s\n", "geometry",
                "DDIO (kreq/s)", "adaptive (kreq/s)", "loss");
    bench::rule(62);

    // Cells are identified by name, not grid position, so the table
    // stays correct if the grid builder ever reorders.
    const struct { const char *label, *slug; } geoms[] = {
        {"LLC = 20 MB", "llc20"},
        {"LLC = 11 MB", "llc11"},
        {"LLC = 8 MB", "llc8"},
    };
    double loss_sum = 0.0;
    for (const auto &g : geoms) {
        const double ddio = bench::byName(
            results, std::string("fig14/") + g.slug +
                "/ring.none+cache.ddio").value("kreq_per_sec");
        const double adapt = bench::byName(
            results, std::string("fig14/") + g.slug +
                "/ring.none+cache.adaptive").value("kreq_per_sec");
        const double loss = 100.0 * (1.0 - adapt / ddio);
        loss_sum += loss;
        std::printf("  %-14s %16.1f %16.1f %9.2f%%\n", g.label,
                    ddio, adapt, loss);
    }
    bench::rule(62);
    std::printf("  average loss: %.2f%% (paper: <2%%)\n",
                loss_sum / 3.0);
    return 0;
}
