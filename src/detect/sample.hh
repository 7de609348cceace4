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
 *
 * Off-path guarantee: emitters hold a nullable probe pointer and skip
 * all telemetry work when it is null (the default), so an experiment
 * that attaches no rig executes the exact same loads, stores, and RNG
 * draws as before the telemetry layer existed -- the golden-trace
 * tests pin this.
 */

#ifndef PKTCHASE_DETECT_SAMPLE_HH
#define PKTCHASE_DETECT_SAMPLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace pktchase::detect
{

/**
 * Default telemetry epoch: ~6 us of core cycles. Short enough that a
 * 40 kpps packet stream lands one packet every ~4 epochs (so cadence
 * detectors can see periodicity), long enough that per-epoch counter
 * deltas are statistically meaningful.
 */
constexpr Cycles kDefaultEpochCycles = 20000;

/** The epoch a sample covers. */
struct Epoch
{
    std::uint64_t epoch = 0; ///< Epoch index (start / epochCycles).
    Cycles start = 0;        ///< First cycle of the epoch.
    Cycles end = 0;          ///< One past the last cycle.
};

/** One epoch of LLC counters. */
struct LlcSample : Epoch
{
    std::uint64_t cpuAccesses = 0; ///< CPU-side LLC references.
    std::uint64_t cpuMisses = 0;   ///< ... that missed.
    std::uint64_t ddioFills = 0;   ///< DDIO allocations (injections).
    std::uint64_t ddioCpuDisplaced = 0; ///< ... that displaced a CPU line.
    /** I/O lines displaced by CPU fills (the priming signature). */
    std::uint64_t ioConflicts = 0;
    std::vector<std::uint64_t> groupMisses; ///< cpuMisses per slice group.
    std::vector<std::uint64_t> groupFills;  ///< ddioFills per slice group.

    /** cpuMisses / cpuAccesses; 0 in an epoch without accesses. */
    double
    missRate() const
    {
        return cpuAccesses > 0 ? static_cast<double>(cpuMisses) /
            static_cast<double>(cpuAccesses) : 0.0;
    }
};

/** One epoch of one receive queue's buffer recycles. */
struct RxQueueSample : Epoch
{
    std::size_t queue = 0;
    std::uint64_t recycles = 0; ///< Buffers recycled this epoch.
    std::uint64_t pages = 0;    ///< Distinct backing pages among them.
    /**
     * Mean recycle distance: recycles since the same page last backed
     * a fill on this queue (first sightings excluded).
     */
    double reuseMean = 0.0;
    /**
     * Shannon entropy (bits) of the epoch's page histogram, normalized
     * by log2(recycles) to [0, 1]; 1 when recycles < 2.
     */
    double entropy = 1.0;
};

/** One epoch of the cross-queue recycle distribution. */
struct RxAggSample : Epoch
{
    std::uint64_t total = 0;             ///< Recycles across every queue.
    std::vector<std::uint64_t> perQueue; ///< Queue k's share of them.
    /**
     * Shannon entropy of perQueue, normalized by log2(queues) to
     * [0, 1]; 1 when queues == 1.
     */
    double entropy = 1.0;
};

/** Where the counter probes publish their samples. */
class SampleSink
{
  public:
    virtual void publish(const LlcSample &s) = 0;
    virtual void publish(const RxQueueSample &s) = 0;
    virtual void publish(const RxAggSample &s) = 0;
};

} // namespace pktchase::detect

#endif // PKTCHASE_DETECT_SAMPLE_HH
