/**
 * @file
 * Ring-buffer sequence recovery -- Algorithm 1 of the paper.
 *
 * The attacker probes N page-aligned sets while packets stream in, then
 * builds a weighted successor graph whose nodes are monitored sets and
 * whose edges carry one node of history (so two ring buffers that share
 * a cache set can be told apart by their successors, Fig. 9), and
 * finally walks the heaviest cycle to recover the ring order. The
 * recovered sequence is scored against driver ground truth with
 * Levenshtein distance (Table I).
 *
 * Full-ring recovery extends a 32-set window one candidate set at a
 * time, re-running the sampler with 31 placed nodes plus the candidate
 * and inserting the candidate next to its observed neighbours, as
 * Sec. III-C describes.
 */

#ifndef PKTCHASE_ATTACK_SEQUENCER_HH
#define PKTCHASE_ATTACK_SEQUENCER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "attack/prime_probe.hh"
#include "attack/probe_params.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::attack
{

/** Sequencer parameters (Table I defaults). */
struct SequencerConfig
{
    std::size_t nSamples = 100000;   ///< Probe rounds to collect.
    double probeRateHz = 8000;       ///< Rounds per second.

    /** Shared miss-threshold/ways calibration. */
    ProbeParams probe;

    /** Fraction of active rounds above which a set is "always miss". */
    double activityCutoff = 0.95;

    /** Minimum edge weight followed by MAKE_SEQUENCE. */
    std::uint64_t weightCutoff = 3;

    /** Max GET_CLEAN_SAMPLES retries after replacing noisy sets. */
    unsigned cleanRetries = 2;
};

/** Output of one sequencer run. */
struct SequencerResult
{
    /**
     * Recovered ring order as indices into the monitored combo list;
     * a combo hosting k ring buffers appears k times.
     */
    std::vector<int> sequence;
    std::size_t samplesUsed = 0;
    Cycles elapsed = 0;       ///< Simulated time spent sampling.
    unsigned replacedSets = 0; ///< Sets swapped for their block-1 twin.
};

/**
 * Algorithm 1: GET_CLEAN_SAMPLES + BUILD_GRAPH + MAKE_SEQUENCE.
 */
class Sequencer
{
  public:
    /**
     * @param hier   Timing oracle.
     * @param groups Combo partition of the spy pool.
     * @param combos Monitored combos (<= 64 per the paper).
     * @param cfg    Sampling and graph parameters.
     */
    Sequencer(cache::Hierarchy &hier, const ComboGroups &groups,
              std::vector<std::size_t> combos,
              const SequencerConfig &cfg);

    /**
     * Run the full procedure; traffic pumps must already be scheduled
     * on @p eq so that packets flow during sampling.
     */
    SequencerResult run(EventQueue &eq);

    /**
     * BUILD_GRAPH + MAKE_SEQUENCE on externally collected samples
     * (exposed for unit testing the graph logic on synthetic traces).
     */
    static std::vector<int>
    sequenceFromSamples(const std::vector<ProbeSample> &samples,
                        std::size_t n_sets,
                        std::uint64_t weight_cutoff);

  private:
    /** Edge key: (prev, curr) node pair with one node of history. */
    using EdgeKey = std::pair<int, int>;
    /** graph[(prev, curr)][cand] = observation count. */
    using Graph = std::map<EdgeKey, std::map<int, std::uint64_t>>;

    cache::Hierarchy &hier_;
    const ComboGroups &groups_;
    std::vector<std::size_t> combos_;
    SequencerConfig cfg_;

    std::vector<ProbeSample>
    collectSamples(EventQueue &eq, PrimeProbeMonitor &monitor);

    static Graph buildGraph(const std::vector<ProbeSample> &samples,
                            std::size_t n_sets);

    static std::vector<int> makeSequence(Graph graph,
                                         std::uint64_t weight_cutoff);
};

/**
 * Full-ring recovery by incremental extension (Sec. III-C): run the
 * sequencer on an initial window of combos, then re-run it repeatedly
 * with 31 already-placed combos plus one candidate, inserting the
 * candidate after its observed predecessor, until every active combo
 * is placed.
 *
 * Status: approximate. Each candidate is placed once (multi-buffer
 * combos keep only their initial-window occurrences), and within a
 * bracket segment the insertion order is under-constrained, so the
 * global order carries substantially more error than a single Table I
 * window. The covert-channel use case -- picking single-mapped buffers
 * that are far apart in the ring -- tolerates this (Sec. III-C:
 * "small errors in the sequence are tolerable"); experiments that need
 * slot-exact order use a 32..64-set window directly.
 */
class FullRingRecovery
{
  public:
    /**
     * @param hier    Timing oracle.
     * @param groups  Spy pool partition.
     * @param active  All combos with observed buffer activity.
     * @param cfg     Per-window sequencer configuration (nSamples is
     *                the per-window sample count; windows of 32).
     */
    FullRingRecovery(cache::Hierarchy &hier, const ComboGroups &groups,
                     std::vector<std::size_t> active,
                     const SequencerConfig &cfg);

    /**
     * Run the initial window plus one extension round per remaining
     * combo. Traffic pumps must already be scheduled on @p eq.
     *
     * @return Recovered ring order as combo ids (multi-buffer combos
     *         appear once per observable position).
     */
    std::vector<std::size_t> recover(EventQueue &eq);

    /**
     * Active combos the last recover() did not place (insufficient
     * signal), in active order: with the result, every active combo.
     */
    const std::vector<std::size_t> &unplaced() const { return unplaced_; }

  private:
    cache::Hierarchy &hier_;
    const ComboGroups &groups_;
    std::vector<std::size_t> active_;
    SequencerConfig cfg_;
    std::vector<std::size_t> unplaced_;
};

/**
 * Expected observable sequence for scoring: the ground-truth ring sets
 * mapped onto monitored-combo indices, with unmonitored slots dropped
 * and consecutive duplicates merged (the attack cannot see self-loops).
 *
 * @param ring_sets  Driver ground truth: global set id per ring slot.
 * @param combo_gset Global set id of each monitored combo.
 * @return Sequence of monitor indices, ring order.
 */
std::vector<int>
expectedMonitorSequence(const std::vector<std::size_t> &ring_sets,
                        const std::vector<std::size_t> &combo_gset);

} // namespace pktchase::attack

#endif // PKTCHASE_ATTACK_SEQUENCER_HH
