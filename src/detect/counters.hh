/**
 * @file
 * Counter probes: the glue between the hardware emitters' telemetry
 * hooks (cache::LlcTelemetry, nic::RxTelemetry) and a SampleSink.
 *
 * Each probe accumulates event counts and publishes one sample per
 * completed epoch. Epochs roll lazily, driven by the timestamps
 * of the events themselves (there is no timer agent in the model), so
 * a probe can only notice an epoch boundary when the next event
 * arrives; the final partial epoch of a run is published by flush().
 *
 * The LLC probe zero-fills empty epochs (bounded by kMaxCatchUp) so
 * its per-epoch series is uniformly sampled -- the cadence detector's
 * autocorrelation lags are only meaningful on a uniform grid. The
 * per-queue recycle probe does not: its consumers score sample values,
 * not sample spacing, and a queue can be legitimately idle for long
 * stretches.
 */

#ifndef PKTCHASE_DETECT_COUNTERS_HH
#define PKTCHASE_DETECT_COUNTERS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

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
     * @param groups       Slice-group count (the LLC geometry's slices).
     */
    LlcCounterProbe(SampleSink &sink, Cycles epoch_cycles,
                    unsigned groups);

    void cpuAccess(unsigned group, bool hit, Cycles now) override;
    void ioInjection(unsigned group, bool displaced_cpu_line,
                     Cycles now) override;
    void ioLineConflict(unsigned group, Cycles now) override;

    /** Publish the current partial epoch, if it saw any event. */
    void flush(Cycles now);

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
        if (now < epochEnd_)
            return;
        rollSlow(now);
    }

    void rollSlow(Cycles now);
    void publishEpoch(std::uint64_t epoch);
    void reset();

    SampleSink &sink_;
    Cycles width_;
    unsigned groups_;
    std::uint64_t epoch_ = 0;
    Cycles epochEnd_ = 0;  ///< First cycle past the current epoch.
    LlcSample acc_;        ///< The current epoch's counts.
    bool any_ = false;     ///< Whether the current epoch saw an event.
};

/**
 * Per-receive-queue recycle probe. Publishes one RxQueueSample per
 * queue and epoch in which that queue recycled at least one buffer,
 * plus one RxAggSample (the cross-queue recycle distribution) per
 * non-empty epoch.
 *
 * The per-queue page-histogram entropy characterizes the *defense*
 * (a randomizing policy raises it; the bare ring pins it at the ring
 * size), while the aggregate's cross-queue entropy is the
 * attacker-visible signal: a trojan or covert sender hammering one
 * flow concentrates recycles on one queue, collapsing it -- what
 * detect::ReuseEntropyDrop scores.
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

    void onRecycle(std::size_t queue, std::size_t slot, Addr page,
                   Cycles now) override;

    /** Publish every queue's current partial epoch. */
    void flush(Cycles now);

  private:
    struct QueueState
    {
        std::uint64_t epoch = 0;
        std::uint64_t recycleOrdinal = 0; ///< Lifetime recycle count.

        // Epoch accumulators.
        std::uint64_t recycles = 0;
        std::uint64_t reuseSum = 0;
        std::uint64_t reuseCount = 0;
        std::unordered_map<Addr, std::uint64_t> pageCounts;

        /** page -> ordinal of its last recycle (lifetime). */
        std::unordered_map<Addr, std::uint64_t> lastSeen;
    };

    void publishEpoch(std::size_t queue, std::uint64_t epoch);
    void publishAggregate(std::uint64_t epoch);

    /**
     * Epoch index containing @p now, via a cached [start, end) window
     * so the per-recycle hot path avoids the 64-bit division.
     */
    std::uint64_t
    epochOf(Cycles now)
    {
        if (now < curStart_ || now >= curEnd_) {
            curTarget_ = now / width_;
            curStart_ = curTarget_ * width_;
            curEnd_ = curStart_ + width_;
        }
        return curTarget_;
    }

    SampleSink &sink_;
    Cycles width_;
    std::vector<QueueState> queues_;

    // Cached epoch window for epochOf().
    std::uint64_t curTarget_ = 0;
    Cycles curStart_ = 0;
    Cycles curEnd_ = 0;

    RxAggSample agg_; ///< The current aggregate epoch's counts.
};

} // namespace pktchase::detect

#endif // PKTCHASE_DETECT_COUNTERS_HH
