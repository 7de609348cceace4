/**
 * @file
 * Counter probes: the glue between the hardware emitters' telemetry
 * hooks (cache::LlcTelemetry, nic::RxTelemetry) and a SampleSink.
 *
 * Each probe accumulates event counts and publishes one sample per
 * completed epoch. Epochs roll lazily, driven by the timestamps
 * of the events themselves (there is no timer agent in the model), so
 * a probe can only notice an epoch boundary when the next event
 * arrives; every hook rolls, whether or not it counts anything, and
 * the last partial epoch of a run is never published.
 *
 * The LLC probe zero-fills empty epochs (bounded by kMaxCatchUp) so
 * its per-epoch series is uniformly sampled -- the cadence detector's
 * autocorrelation lags are only meaningful on a uniform grid. The
 * recycle probe does not: entropy-drop scores sample values, not
 * sample spacing, and a NIC can be legitimately idle for long
 * stretches.
 */

#ifndef PKTCHASE_DETECT_COUNTERS_HH
#define PKTCHASE_DETECT_COUNTERS_HH

#include <cstdint>

#include "cache/telemetry.hh"
#include "detect/sample.hh"
#include "nic/telemetry.hh"
#include "sim/types.hh"

namespace pktchase::detect
{

/** LLC counter probe: one LlcSample per epoch. */
class LlcCounterProbe : public cache::LlcTelemetry
{
  public:
    /** Empty-epoch zero-fill bound per catch-up (see file comment). */
    static constexpr std::uint64_t kMaxCatchUp = 256;

    /**
     * @param sink         Where the samples go.
     * @param epoch_cycles Epoch width in cycles (nonzero).
     */
    LlcCounterProbe(SampleSink &sink, Cycles epoch_cycles);

    void cpuAccess(bool hit, Cycles now) override;
    void ioInjection(Cycles now) override;
    void ioLineConflict(Cycles now) override;

  private:
    /**
     * Publish completed epochs up to the one containing @p now. The
     * common case -- @p now still inside the current epoch -- is a
     * single compare against the cached epoch-end cycle; the division
     * and publish work only run on an actual boundary crossing.
     */
    void
    roll(Cycles now)
    {
        if (now >= epochEnd_)
            rollSlow(now);
    }

    void rollSlow(Cycles now);
    void publishEpoch();

    SampleSink &sink_;
    Cycles width_;
    Cycles epochEnd_; ///< First cycle past the current epoch.
    LlcSample acc_;   ///< The current epoch and its counts.
};

/**
 * Receive-path recycle probe: one RxAggSample, the cross-queue recycle
 * distribution, per epoch in which any queue recycled a buffer. A
 * trojan or covert sender hammering one flow concentrates recycles on
 * one queue -- what detect::ReuseEntropyDrop scores.
 */
class RxCounterProbe : public nic::RxTelemetry
{
  public:
    /**
     * @param sink         Where the samples go.
     * @param epoch_cycles Epoch width in cycles (nonzero).
     * @param queues       Receive-queue count of the instrumented driver.
     */
    RxCounterProbe(SampleSink &sink, Cycles epoch_cycles,
                   std::size_t queues);

    void onRecycle(std::size_t queue, Cycles now) override;

  private:
    /** Publish the current epoch, if it saw a recycle, and move to
     *  the one containing @p now. */
    void rollSlow(Cycles now);

    SampleSink &sink_;
    Cycles width_;
    Cycles epochEnd_; ///< First cycle past the current epoch.
    RxAggSample acc_; ///< The current epoch and its counts.
};

} // namespace pktchase::detect

#endif // PKTCHASE_DETECT_COUNTERS_HH
