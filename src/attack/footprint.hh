/**
 * @file
 * Ring-buffer cache footprint recovery (Sec. III-B, Figs. 5-7).
 *
 * The scanner probes all page-aligned combos at a configurable rate
 * (attack::sampleRounds over one monitor) while traffic flows,
 * producing the Fig. 7 activity raster; comparing
 * activity during idle and receiving windows identifies which combos
 * host rx buffers (the non-uniform mapping of Figs. 5-6 means ~35% of
 * page-aligned sets host none).
 */

#ifndef PKTCHASE_ATTACK_FOOTPRINT_HH
#define PKTCHASE_ATTACK_FOOTPRINT_HH

#include <cstdint>
#include <vector>

#include "attack/prime_probe.hh"
#include "attack/probe_params.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/** Scanner configuration. */
struct FootprintConfig
{
    double probeRateHz = 8000;   ///< Full probe rounds per second.

    /** Shared miss-threshold/ways calibration. */
    ProbeParams probe;
};

/**
 * Probes a list of combos periodically and records activity rasters.
 */
class FootprintScanner
{
  public:
    /**
     * @param hier   Timing oracle.
     * @param groups Combo partition of the spy's pool.
     * @param combos Which combos to monitor (typically all).
     * @param cfg    Probe rate and threshold.
     */
    FootprintScanner(cache::Hierarchy &hier, const ComboGroups &groups,
                     std::vector<std::size_t> combos,
                     const FootprintConfig &cfg);

    /**
     * Schedule probe rounds on @p eq from its current time until
     * @p horizon and run the queue (interleaving with any traffic
     * pumps already scheduled).
     *
     * @return One ProbeSample per round, in time order.
     */
    std::vector<ProbeSample> scan(EventQueue &eq, Cycles horizon);

    /**
     * Fraction of rounds in which each monitored combo was active.
     */
    static std::vector<double>
    activityRates(const std::vector<ProbeSample> &samples);

    /**
     * Indices (into the monitored combo list) whose activity rate lies
     * in (idle_cutoff, always_cutoff): candidate rx-buffer sets.
     */
    static std::vector<std::size_t>
    candidateBufferSets(const std::vector<ProbeSample> &samples,
                        double idle_cutoff, double always_cutoff);

    /**
     * Partition recovered candidate combos by owning receive queue,
     * given per-queue ground truth (e.g. Testbed::queueComboSequences
     * on a multi-queue driver): result[q] lists the candidates that
     * host at least one of queue q's ring buffers, in candidate order.
     * A combo backing buffers of several queues appears under each --
     * on a multi-queue NIC the footprints overlap in the LLC even
     * though the rings are disjoint, which is exactly what makes the
     * spy's per-ring reverse engineering harder.
     */
    static std::vector<std::vector<std::size_t>>
    attributeToQueues(
        const std::vector<std::size_t> &candidates,
        const std::vector<std::vector<std::size_t>> &queue_combos);

    /** The monitored combo ids, in monitor order. */
    const std::vector<std::size_t> &combos() const { return combos_; }

  private:
    std::vector<std::size_t> combos_;
    FootprintConfig cfg_;
    std::vector<PrimeProbeMonitor> monitor_; ///< One, over every combo.
};

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_FOOTPRINT_HH
