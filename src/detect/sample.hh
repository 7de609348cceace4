/**
 * @file
 * Telemetry samples: one plain struct per counter source, and the
 * sink the counter probes publish them into.
 *
 * The model mirrors how a production stack samples PMU/NIC counters:
 * each probe accumulates event counts and, on a fixed epoch boundary
 * (in cycles), publishes one sample holding the epoch's values. The
 * sink (detect::DetectionRig, or a recording test harness) sees the
 * samples in publish order, synchronously, on the simulating thread.
 * A sample carries exactly the counters the built-in detectors read:
 * LLC misses (miss-spike), I/O-line conflicts (cadence) and the
 * per-queue recycle counts (entropy-drop).
 *
 * Off-path guarantee: emitters hold a nullable probe pointer and skip
 * all telemetry work when it is null (the default), so an experiment
 * that attaches no rig executes the exact same loads, stores, and RNG
 * draws as before the telemetry layer existed -- the golden-trace
 * tests pin this.
 */

#ifndef PKTCHASE_DETECT_SAMPLE_HH
#define PKTCHASE_DETECT_SAMPLE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace pktchase::detect
{

/**
 * The telemetry epoch every DetectionRig samples at: ~6 us of core
 * cycles. Short enough that a 40 kpps packet stream lands one packet
 * every ~4 epochs (so cadence detectors can see periodicity), long
 * enough that per-epoch counter deltas are statistically meaningful.
 */
constexpr Cycles kDefaultEpochCycles = 20000;

/** The epoch a sample covers. */
struct Epoch
{
    std::uint64_t epoch = 0; ///< Epoch index (start / epoch width).
    Cycles start = 0;        ///< First cycle of the epoch.
    Cycles end = 0;          ///< One past the last cycle.
};

/** One epoch of LLC counters. */
struct LlcSample : Epoch
{
    std::uint64_t cpuMisses = 0; ///< CPU-side LLC misses.
    /** I/O lines displaced by CPU fills (the priming signature). */
    std::uint64_t ioConflicts = 0;
};

/** One epoch of the cross-queue recycle distribution. */
struct RxAggSample : Epoch
{
    std::uint64_t total = 0;             ///< Recycles across every queue.
    std::vector<std::uint64_t> perQueue; ///< Queue k's share of them.
};

/** Where the counter probes publish their samples. */
class SampleSink
{
  public:
    virtual void publish(const LlcSample &s) = 0;
    virtual void publish(const RxAggSample &s) = 0;
};

} // namespace pktchase::detect

#endif // PKTCHASE_DETECT_SAMPLE_HH
