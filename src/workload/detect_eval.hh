/**
 * @file
 * Detection-evaluation grids for the parallel campaign runtime.
 *
 * Two registered experiments:
 *
 *  - "figD1" -- detector quality. For every (detector, attacker probe
 *    rate, queue count) cell a reduced testbed runs twice under the
 *    same benign flow mix: once with the attacker (a footprint
 *    scanner priming every page-aligned combo at the probe rate plus
 *    a trojan-style single-flow flood) and once without. The per-
 *    epoch score streams of the two runs give the cell's ROC AUC and
 *    the alarm rates at the default threshold. Three extra cells per
 *    detector measure the benign false-positive rate on the full-size
 *    Nginx server workload (the deployment question: how often would
 *    the defense arm for nothing).
 *
 *  - "figD2" -- the gating win, end to end. The same defense cell
 *    triple {no defense, always-on ring.partial:1000, detector-gated
 *    ring.gated:cadence:partial.1000} is evaluated twice: benign
 *    open-loop latency (gated should match no-defense -- the gate
 *    never arms, so zero reallocations), and fingerprint accuracy
 *    under a live chasing attack (gated should match always-on --
 *    the cadence detector arms within the first capture).
 *
 * Every cell assembles a private Testbed and a private DetectionRig,
 * so the grids inherit the campaign determinism contract (threads=N
 * bit-identical to serial; tests/detect_stress_test.cc).
 */

#ifndef PKTCHASE_WORKLOAD_DETECT_EVAL_HH
#define PKTCHASE_WORKLOAD_DETECT_EVAL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "defense/registry.hh"
#include "detect/detector.hh"
#include "net/traffic.hh"
#include "runtime/scenario.hh"

namespace pktchase::workload
{

/**
 * The benign flow mix every figD1 run carries, attack run and benign
 * twin alike: several steady connections plus a many-flow Poisson
 * background drawn from @p seed, all unbounded so the mix outlives
 * the horizon.
 */
std::unique_ptr<net::FlowMix> benignMix(std::uint64_t seed);

/** The attacker probe rates (Hz) figD1 sweeps. */
std::vector<double> figD1ProbeRates();

/** The NIC queue counts figD1 sweeps. */
std::vector<std::size_t> figD1QueueCounts();

/**
 * Score epochs discarded from the head of every stream before
 * AUC/alarm-rate computation: detector windows are still filling and
 * emit structural zeros that would dilute both classes equally.
 */
constexpr std::uint64_t kDetectWarmupEpochs = 160;

/** One detection run's harvest. */
struct DetectionTrace
{
    std::vector<detect::Score> scores; ///< Full stream, warmup included.
    std::uint64_t samples = 0;         ///< Samples the rig published.
};

/**
 * Run the figD1 attack scenario for one cell: benign mix + footprint
 * scan at @p probe_rate_hz + trojan flood, on a reduced @p queues-
 * queue testbed, with @p detector attached. Deterministic in
 * (detector, probe_rate_hz, queues, seed) -- the golden test pins one
 * cell of this function.
 */
DetectionTrace runDetectionAttack(const std::string &detector,
                                  double probe_rate_hz,
                                  std::size_t queues,
                                  std::uint64_t seed);

/** The matched benign twin: same mix and horizon, no attacker. */
DetectionTrace runDetectionBenign(const std::string &detector,
                                  std::size_t queues,
                                  std::uint64_t seed);

/** The figD2 defense cells: none, always-on, detector-gated. */
std::vector<defense::Cell> figD2Cells();

/** figD1 grid: (detector x probe rate x queues) ROC cells plus the
 *  per-detector benign-server false-positive cells. */
std::vector<runtime::Scenario> figD1DetectionGrid();

/**
 * figD2 grid: benign open-loop latency and under-attack fingerprint
 * accuracy for every figD2 cell.
 */
std::vector<runtime::Scenario> figD2GatingGrid(double rate,
                                               std::size_t requests);

/** Register "figD1" and "figD2" with the scenario registry. */
void registerDetectionScenarios();

} // namespace pktchase::workload

#endif // PKTCHASE_WORKLOAD_DETECT_EVAL_HH
