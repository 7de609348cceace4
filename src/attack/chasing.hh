/**
 * @file
 * Packet chasing proper: following packets buffer-by-buffer along the
 * recovered ring sequence (Secs. III-C, IV-c, V).
 *
 * Instead of probing all 256 page-aligned sets, the spy probes only the
 * sets of the *next expected* buffer -- the first four blocks of both
 * half-pages, since the driver flips halves for large packets -- and
 * advances on every detected packet, classifying its size in cache
 * blocks (1..4+). Losing a packet desynchronizes the spy from the ring;
 * it then parks on the current buffer until the ring wraps around and
 * fills it again (one out-of-sync event, Fig. 12c).
 *
 * ChasingMonitor runs one chase cursor per receive queue, each
 * following that queue's ring order and resyncing independently, and
 * merges their packets into one arrival-ordered list. On a single-queue
 * NIC it reproduces the paper's single-ring chase exactly.
 */

#ifndef PKTCHASE_ATTACK_CHASING_HH
#define PKTCHASE_ATTACK_CHASING_HH

#include <cstdint>
#include <vector>

#include "attack/eviction_set.hh"
#include "attack/prime_probe.hh"
#include "attack/probe_params.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/** Chase knobs; the fields mirror the paper's chasing parameters. */
struct ChaseConfig
{
    ProbeParams probe;

    /** Blocks probed per half-page (4 -> size classes 1..4+). */
    unsigned sizeBlocks = 4;

    /**
     * First in-page block row to probe. The web-fingerprint attack
     * probes rows 0..3; the covert channel probes rows 1..3 (Sec.
     * IV-b) -- row 1 fires for every packet thanks to the driver
     * prefetch, acting as the clock, and dropping row 0 cuts probe
     * cost enough to chase line-rate-ish senders.
     */
    unsigned firstBlock = 0;

    /**
     * Probe only the lower half-page. Correct whenever the traffic
     * stays at or below the copy-break threshold (no page flips), and
     * halves the probe cost -- the covert channel uses this.
     */
    bool lowerHalfOnly = false;

    /** Gap between consecutive per-buffer probes. */
    Cycles probeInterval = 4000;

    /**
     * Cycles without activity on a cursor's expected buffer before
     * declaring out-of-sync and waiting for the ring to wrap.
     */
    Cycles resyncTimeout = 5'000'000;
};

/** One packet observed by a chase cursor. */
struct PacketObservation
{
    Cycles when = 0;
    unsigned sizeClass = 0;  ///< 1..sizeBlocks ("4" means >= 4 blocks).
    bool secondHalf = false; ///< Landed in the upper half of the page.
    std::size_t slot = 0;    ///< Ring slot the spy attributed it to.
    std::size_t queue = 0;   ///< Receive queue (cursor) index.
};

/** One cursor's accounting. */
struct QueueChaseStats
{
    std::uint64_t probes = 0;  ///< Probe rounds executed.
    std::uint64_t packets = 0; ///< Packets observed.
    std::uint64_t outOfSyncEvents = 0;
};

/** Outcome of a chase (all queues merged). */
struct ChaseResult
{
    /** Observed packets, arrival-ordered across every chased queue. */
    std::vector<PacketObservation> packets;
    std::uint64_t outOfSyncEvents = 0; ///< Summed over queues.
    std::uint64_t probes = 0;          ///< Summed over queues.
    std::vector<QueueChaseStats> queues; ///< Per queue, queue order.
};

/**
 * Follows the recovered buffer sequence of every receive queue and
 * records packet sizes.
 */
class ChasingMonitor
{
  public:
    /**
     * @param hier       Timing oracle.
     * @param groups     Combo partition of the spy pool.
     * @param queue_seqs Recovered ring order of each receive queue as
     *                   combo ids (one entry per ring slot the spy can
     *                   see), in queue order.
     * @param cfg        Probe cadence, thresholds and chase fields.
     */
    ChasingMonitor(cache::Hierarchy &hier, const ComboGroups &groups,
                   const std::vector<std::vector<std::size_t>> &queue_seqs,
                   const ChaseConfig &cfg);

    ChasingMonitor(const ChasingMonitor &) = delete;
    ChasingMonitor &operator=(const ChasingMonitor &) = delete;

    /**
     * Prime every cursor, then chase packets on @p eq until @p horizon
     * (traffic pumps must already be scheduled). Call once.
     */
    ChaseResult chase(EventQueue &eq, Cycles horizon);

  private:
    /** One receive queue's cursor over its ring slots' monitors. */
    struct Cursor
    {
        std::vector<PrimeProbeMonitor> monitors; ///< One per ring slot.
        std::size_t slot = 0;
        Cycles lastActivity = 0;
        std::vector<std::uint8_t> accum; ///< Activity of this visit.
    };

    /** Probe @p q's expected buffer once and reschedule it. */
    void probeRound(std::size_t q);

    /**
     * Size class of the accumulated activity: 0 = no packet; otherwise
     * the class, with @p second_half set when the upper half fired.
     */
    unsigned classify(const std::vector<std::uint8_t> &active,
                      bool &second_half) const;

    ChaseConfig cfg_;
    std::vector<Cursor> cursors_;
    ChaseResult result_;
    EventQueue *eq_ = nullptr;
    Cycles horizon_ = 0;
};

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_CHASING_HH
