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
 * ChasingMonitor is the chase front-end over attack::ProbeEngine: one
 * chase stream per receive queue, observations merged arrival-ordered.
 * On a single-queue NIC it reproduces the paper's single-ring chase
 * exactly.
 */

#ifndef PKTCHASE_ATTACK_CHASING_HH
#define PKTCHASE_ATTACK_CHASING_HH

#include <cstdint>
#include <vector>

#include "attack/probe_engine.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/** Outcome of a chase (all queues merged). */
struct ChaseResult
{
    /** Observed packets, arrival-ordered across every chased queue. */
    std::vector<PacketObservation> packets;
    std::uint64_t outOfSyncEvents = 0; ///< Summed over queues.
    std::uint64_t probes = 0;          ///< Summed over queues.
    std::size_t finalSlot = 0;  ///< Where queue 0's cursor ended up.
    std::vector<std::size_t> finalSlots; ///< Per-queue final cursors.
};

/**
 * Follows the recovered buffer sequence(s) and records packet sizes.
 */
class ChasingMonitor
{
  public:
    /**
     * Single-queue chase (the paper's configuration).
     *
     * @param hier      Timing oracle.
     * @param groups    Combo partition of the spy pool.
     * @param combo_seq Recovered ring order as combo ids (one entry
     *                  per ring slot the spy can see).
     * @param cfg       Probe cadence, thresholds and the chase
     *                  fields (blocks probed, resync timeout).
     */
    ChasingMonitor(cache::Hierarchy &hier, const ComboGroups &groups,
                   std::vector<std::size_t> combo_seq,
                   const ProbeEngineConfig &cfg);

    /**
     * Multi-queue chase: one cursor per receive queue, each following
     * that queue's recovered ring order and resyncing independently.
     */
    ChasingMonitor(cache::Hierarchy &hier, const ComboGroups &groups,
                   std::vector<std::vector<std::size_t>> queue_seqs,
                   const ProbeEngineConfig &cfg);

    /**
     * Chase packets on @p eq until @p horizon (traffic pumps must
     * already be scheduled). Call once per monitor.
     */
    ChaseResult chase(EventQueue &eq, Cycles horizon);

    /** The underlying engine (per-queue stats, observer attachment). */
    ProbeEngine &engine() { return engine_; }

  private:
    ProbeEngine engine_;
    ChasingObserver observer_;
    std::size_t queues_ = 0;
};

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_CHASING_HH
