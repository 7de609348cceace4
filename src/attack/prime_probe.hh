/**
 * @file
 * PRIME+PROBE primitives over eviction sets (the Mastik role).
 *
 * A probe of one eviction set reads all of its addresses and reports
 * whether any read missed (someone displaced the spy's line since the
 * previous probe). Probing doubles as re-priming, so a monitor loop is
 * simply repeated probes. Probe cost is accounted in simulated cycles:
 * the monitor consumes time exactly as the real attacker does, which is
 * what bounds how many sets can be watched at a given resolution
 * (Sec. III-B's "12 million cycles to access the entire cache").
 *
 * sampleRounds() is the one fixed-list sampling loop: the footprint
 * scan (Sec. III-B), the covert spy (Sec. IV-b) and the Fig. 8 size
 * detector all probe a fixed list of monitors at a rate through it.
 */

#ifndef PKTCHASE_ATTACK_PRIME_PROBE_HH
#define PKTCHASE_ATTACK_PRIME_PROBE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "attack/eviction_set.hh"
#include "cache/hierarchy.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/** One probe round over a monitor list. */
struct ProbeSample
{
    Cycles start = 0;               ///< When the round began.
    Cycles end = 0;                 ///< When it finished.
    std::vector<std::uint8_t> active; ///< Per-set: any miss observed.
};

/**
 * Probes a list of eviction sets and reports per-set activity.
 */
class PrimeProbeMonitor
{
  public:
    /**
     * @param hier           Timing oracle.
     * @param sets           Eviction sets to monitor (copied).
     * @param miss_threshold Latency above which a read counts as a miss.
     */
    PrimeProbeMonitor(cache::Hierarchy &hier,
                      std::vector<EvictionSet> sets,
                      Cycles miss_threshold = 130);

    /**
     * Prime all sets (initial fill) starting at @p now.
     * @return Cycles consumed.
     */
    Cycles primeAll(Cycles now);

    /**
     * One probe round over every monitored set starting at @p now.
     *
     * @return A reference to the monitor's internal sample, overwritten
     *         by the next probeAll round -- copy it to retain.
     */
    const ProbeSample &probeAll(Cycles now);

    /** Replace the eviction set at @p index (always-miss fallback). */
    void replaceSet(std::size_t index, EvictionSet set);

    /** Number of monitored sets. */
    std::size_t size() const { return sets_.size(); }

    /** Read-only access to a monitored set. */
    const EvictionSet &set(std::size_t i) const { return sets_[i]; }

    /** Total timed loads issued (attack cost metric). */
    std::uint64_t timedLoads() const { return timedLoads_; }

  private:
    /** Rebuild the flat line array from sets_. */
    void rebuildLines();

    cache::Hierarchy &hier_;
    std::vector<EvictionSet> sets_;
    Cycles missThreshold_;
    std::uint64_t timedLoads_ = 0;

    // Structure-of-arrays mirror of sets_: every monitored line,
    // concatenated in set order, with CSR-style per-set offsets. The
    // walk loops (primeAll/probeAll) iterate these flat arrays -- one
    // contiguous stream of addresses instead of a pointer chase
    // through per-set vectors -- in exactly the order the per-set walk
    // used, so timestamps and RNG draws are unchanged. sets_ stays the source of truth for set() and
    // replaceSet(), which rebuilds the mirror (rare: fallback path).
    std::vector<Addr> lines_;
    std::vector<std::size_t> setStart_; ///< size() + 1 offsets.
    ProbeSample sample_; ///< Reused by probeAll across rounds.
};

/** Receives one monitor's sample of a round (borrowed: copy to keep). */
using SampleFn =
    std::function<void(std::size_t monitor, const ProbeSample &sample)>;

/**
 * Sample a fixed monitor list at @p rate_hz until @p horizon: prime
 * every monitor at eq.now(), then each round probes the monitors in
 * order (one walk starting where the previous one ended), hands each
 * sample to @p on_sample, and starts the next round max(1 / rate_hz,
 * round cost) later while that falls at or before @p horizon. Runs
 * @p eq to @p horizon, interleaving any traffic already scheduled.
 * Each round is one `probe.sample-round` span.
 *
 * @return Rounds executed.
 */
std::uint64_t sampleRounds(EventQueue &eq,
                           std::vector<PrimeProbeMonitor> &monitors,
                           double rate_hz, Cycles horizon,
                           const SampleFn &on_sample);

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_PRIME_PROBE_HH
