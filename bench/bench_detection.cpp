/**
 * @file
 * Detection-subsystem bench: the registered figD1 detector-quality
 * grid (ROC AUC and alarm rates per attacker probe rate and queue
 * count, plus the benign-server false-positive rates) and figD2 gating
 * grid (detector-gated vs. always-on defense, benign latency and
 * under-attack fingerprint accuracy), formatted as tables.
 *
 * The headline the tables demonstrate: the gated defense
 * ring.gated:cadence:partial.1000 costs nothing when benign (p99
 * identical to no defense -- the gate never arms, zero
 * reallocations) while holding fingerprint accuracy under attack at
 * the always-on ring.partial:1000 level.
 *
 * `campaign figD1 --report=R` (or figD2) writes the same cells as
 * JSON. Threads default to the machine; set PKTCHASE_THREADS to pin.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "runtime/sweep.hh"
#include "workload/detect_eval.hh"

using namespace pktchase;
using namespace pktchase::workload;

int
main()
{
    bench::banner("Detection",
                  "Detector ROC and the detector-gated defense: pay "
                  "for the defense only while under attack");

    registerDetectionScenarios();
    const auto quality = runtime::sweep("figD1");
    const auto gating = runtime::sweep("figD2");

    std::printf("  figD1: detector quality (default thresholds)\n");
    std::printf("  %-36s %8s %8s %8s\n", "cell", "AUC", "TPR", "FPR");
    bench::rule(66);
    for (const auto &r : quality) {
        if (!r.has("auc"))
            continue;
        std::printf("  %-36s %8.3f %8.3f %8.3f\n",
                    r.name.c_str() + 6, r.value("auc"),
                    r.value("tpr"), r.value("fpr"));
    }
    bench::rule(66);
    std::printf("  benign-server false positives: ");
    for (const auto &r : quality) {
        if (r.has("score_peak"))
            std::printf("%s fpr=%.4f  ", r.name.c_str() + 6,
                        r.value("fpr"));
    }
    std::printf("\n\n  figD2: benign open-loop latency (ms)\n");
    const std::vector<std::string> cells =
        bench::cellNames(figD2Cells());
    const double base_p99 = bench::byName(
        gating, "figD2/benign/ring.none+cache.ddio").value("p99");
    bench::printLatencyTable(gating, "figD2/benign", cells, base_p99);

    std::printf("\n  figD2: fingerprint accuracy under attack\n");
    std::printf("  %-48s %9s %9s %12s\n", "cell", "accuracy",
                "reallocs", "arm events");
    bench::rule(84);
    for (const std::string &name : cells) {
        const auto &r = bench::byName(gating, "figD2/attack/" + name);
        std::printf("  %-48s %8.1f%% %9.0f %12.0f\n", name.c_str(),
                    r.value("accuracy") * 100.0,
                    r.value("buffers_reallocated"),
                    r.value("arm_transitions"));
    }
    bench::rule(84);
    return 0;
}
