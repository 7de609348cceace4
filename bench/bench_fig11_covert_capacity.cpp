/**
 * @file
 * Fig. 11: covert channel bandwidth and error rate for binary and
 * ternary encodings across probe rates {7, 14, 28} kHz: the registered
 * fig11 grid (each cell assembles its own testbed and covert
 * spy), formatted as the paper's table. `campaign fig11 --report=R`
 * writes the same cells as JSON.
 *
 * Paper: bandwidth is flat across probe rates (line-rate bound,
 * ~2 kbps binary / ~3.1 kbps ternary at 256 packets/symbol on 1 GbE)
 * while error rate falls as the probe rate rises; binary is slightly
 * more robust than ternary.
 */

#include <cstdio>

#include "bench_util.hh"
#include "runtime/sweep.hh"
#include "workload/attack_eval.hh"

using namespace pktchase;

int
main()
{
    bench::banner("Fig. 11",
                  "Covert channel capacity vs. probe rate (paper: flat "
                  "~2-3.1 kbps bandwidth; error falls with probe "
                  "rate; binary < ternary error)");

    workload::registerAttackScenarios();
    const auto results = runtime::sweep("fig11");

    std::printf("  %-10s %-12s %14s %12s %10s\n", "encoding",
                "probe rate", "bandwidth", "error rate", "received");
    bench::rule(66);
    for (const char *enc : {"binary", "ternary"}) {
        for (int khz : {7, 14, 28}) {
            char name[64];
            std::snprintf(name, sizeof(name), "fig11/%s/%dkhz", enc,
                          khz);
            const runtime::ScenarioResult &r =
                bench::byName(results, name);
            std::printf("  %-10s %9d kHz %11.0f bps %11.2f%% %10.0f\n",
                        enc, khz, r.value("bandwidth_bps"),
                        r.value("error_rate") * 100.0,
                        r.value("received"));
        }
    }
    bench::rule(66);
    return 0;
}
