/**
 * @file
 * Packet-size detection over block-row eviction sets (Fig. 8).
 *
 * The detector probes "rows": the eviction sets of in-page block k
 * (k = 0..3) across a list of combos. When a stream of packets of a
 * given size flows, rows up to the packet's block count show activity
 * and higher rows stay quiet -- except row 1, which always fires
 * because the driver prefetches the second block regardless of size
 * (the Fig. 8 anomaly).
 *
 * The detector samples one monitor per row through attack::sampleRounds
 * and counts, per (row, combo), the rounds in which the set fired.
 */

#ifndef PKTCHASE_ATTACK_SIZE_DETECTOR_HH
#define PKTCHASE_ATTACK_SIZE_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "attack/eviction_set.hh"
#include "attack/prime_probe.hh"
#include "attack/probe_params.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/** Size-detector parameters. */
struct SizeDetectorConfig
{
    unsigned rows = 4;            ///< Block rows 0..rows-1.
    double probeRateHz = 8000;

    /** Shared miss-threshold/ways calibration. */
    ProbeParams probe;
};

/**
 * Probes block rows of the monitored combos and reports per-row and
 * per-(row, combo) activity rates.
 */
class SizeDetector
{
  public:
    SizeDetector(cache::Hierarchy &hier, const ComboGroups &groups,
                 std::vector<std::size_t> combos,
                 const SizeDetectorConfig &cfg);

    /**
     * Probe until @p horizon (traffic already scheduled on @p eq).
     * @return activity[row][combo] as a fraction of probe rounds.
     */
    std::vector<std::vector<double>> measure(EventQueue &eq,
                                             Cycles horizon);

    /** Collapse a measure() result to per-row mean activity. */
    static std::vector<double>
    rowActivity(const std::vector<std::vector<double>> &m);

  private:
    double probeRateHz_;
    std::vector<PrimeProbeMonitor> rows_; ///< Monitor r: row r's sets.
};

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_SIZE_DETECTOR_HH
