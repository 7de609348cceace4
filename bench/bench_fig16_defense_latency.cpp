/**
 * @file
 * Fig. 16: HTTP response tail latency under the candidate defenses,
 * wrk2-style open-loop load, plus the extended defense cells the
 * registry-driven grid adds beyond the paper (intra-page offset,
 * quarantine pool, way-restricted DDIO) and the multi-queue fig16q
 * cells (the same ring defenses on an RSS NIC at 2 and 4 queues).
 *
 * Paper (140k req/s target): adaptive partitioning costs 3.1% at the
 * 99th percentile while full ring randomization costs 41.8%; partial
 * randomization at 10k-packet intervals is near the baseline. The
 * attack needs ~65k packets to deconstruct the ring, so 10k-interval
 * reshuffling still breaks it.
 *
 * Formats the registered fig16, fig16x and fig16q grids. Each runs as
 * a parallel campaign (>= 4 worker threads by default;
 * PKTCHASE_THREADS overrides), and every cell of a grid sees the same
 * arrival process, so each p99 delta is a paired comparison against a
 * ring.none+cache.ddio baseline under the same load.
 * `campaign <grid> --report=R` writes the same cells as JSON.
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
    bench::banner("Fig. 16",
                  "Response latency percentiles per defense (paper: "
                  "adaptive +3.1% at p99, full randomization +41.8%)");

    registerDefenseScenarios();
    const auto paper = runtime::sweep("fig16");
    const auto extended = runtime::sweep("fig16x");
    const auto multiq = runtime::sweep("fig16q");
    const double base_p99 =
        bench::byName(paper, "fig16/ring.none+cache.ddio").value("p99");

    std::printf("  paper cells (latency in ms):\n");
    bench::printLatencyTable(paper, "fig16",
                             bench::cellNames(fig16Cells()), base_p99);

    std::printf("\n  extended cells (p99 vs. the same baseline):\n");
    bench::printLatencyTable(extended, "fig16x",
                             bench::cellNames(extendedCells()), base_p99);

    // fig16q runs its own request stream, so its p99 deltas are
    // against its own single-queue baseline.
    std::printf("\n  multi-queue cells (RSS steering; per-packet-count"
                " defenses\n  reshuffle each ring N x less often at N"
                " queues; p99 vs. the\n  fig16q single-queue"
                " baseline):\n");
    bench::printLatencyTable(
        multiq, "fig16q", bench::cellNames(fig16qCells()),
        bench::byName(multiq, "fig16q/ring.none+cache.ddio")
            .value("p99"));
    return 0;
}
