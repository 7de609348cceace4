/**
 * @file
 * Covert-channel capacity measurement harnesses (Sec. IV, Figs. 10-12).
 *
 * Follows Liu et al.'s methodology as the paper does: transmit the
 * pseudo-random sequence of a 15-bit LFSR and score the received stream
 * with Levenshtein distance, so bit loss, insertion, and swaps all
 * count. Two channel modes:
 *
 *  - runCovertChannel: the spy watches n fixed buffers (n = 1 is the
 *    no-sequence-information baseline; larger n uses ring order to
 *    divide the ring into n sections, Fig. 12a/b);
 *  - runChasingChannel: the spy follows the full recovered sequence,
 *    one symbol per packet, reporting out-of-sync rate (Fig. 12c/d).
 *
 * Optional cache noise (random CPU reads from an unrelated process)
 * exercises the probe-rate/error trade-off of Fig. 11.
 */

#ifndef PKTCHASE_CHANNEL_CAPACITY_HH
#define PKTCHASE_CHANNEL_CAPACITY_HH

#include <cstdint>
#include <vector>

#include "channel/encoding.hh"
#include "channel/spy.hh"
#include "testbed/testbed.hh"

namespace pktchase::channel
{

/** Parameters for the fixed-buffer covert channel. */
struct ChannelRunConfig
{
    Scheme scheme = Scheme::Ternary;
    double probeRateHz = 14000;
    std::size_t nSymbols = 400;
    /** First LFSR symbol to transmit: the run covers stream positions
     *  [symbolOffset, symbolOffset + nSymbols), so a campaign task
     *  can transmit one chunk of a longer pinned stream. */
    std::size_t symbolOffset = 0;
    std::size_t monitoredBuffers = 1;
    double sendRatePps = 0.0;          ///< 0 = line rate.
    double cacheNoiseHz = 0.0;         ///< Noise batches per second.
    unsigned cacheNoiseBatch = 32;     ///< Random reads per batch.
    double arrivalJitterSigma = 2000;  ///< Cycles of network jitter.
    std::uint64_t seed = 5;
};

/** Parameters for the full-sequence chasing channel. */
struct ChasingChannelConfig
{
    Scheme scheme = Scheme::Ternary;
    double targetBandwidthBps = 160000;
    std::size_t nSymbols = 2000;
    /** First LFSR symbol to transmit (chunking, as in
     *  ChannelRunConfig::symbolOffset). */
    std::size_t symbolOffset = 0;
    double cacheNoiseHz = 0.0;
    unsigned cacheNoiseBatch = 32;
    double arrivalJitterSigma = 500;

    /**
     * Per-frame network delay variation (cycles). When inter-frame
     * gaps shrink toward this, adjacent frames start arriving out of
     * order -- the paper's explanation for the 640 kbps error jump.
     */
    double networkDelaySigma = 4000;

    /**
     * Fraction of adjacent transpositions injected into the ground
     * truth ring sequence, emulating the residual inaccuracy of the
     * recovered sequence (Table I reports ~10% error).
     */
    double sequenceErrorRate = 0.0;
    std::uint64_t seed = 5;
};

/** What a channel run produced. */
struct ChannelMeasurement
{
    std::size_t sent = 0;
    std::size_t received = 0;
    double errorRate = 0.0;     ///< Levenshtein / sent (sync regions).
    double bandwidthBps = 0.0;  ///< Achieved information rate.
    double outOfSyncRate = 0.0; ///< Chasing mode only.
    Cycles elapsed = 0;
    std::uint64_t probeRounds = 0; ///< Spy probe rounds executed.

    /** Raw error accounting behind the rates, so chunked runs can be
     *  folded without re-deriving counts from rounded ratios:
     *  editDistance is the covert mode's Levenshtein distance;
     *  matches/substitutions/deletions the chasing mode's optimal
     *  alignment (errorRate = substitutions / (matches +
     *  substitutions), outOfSyncRate = deletions / sent). */
    std::size_t editDistance = 0;
    std::size_t editMatches = 0;
    std::size_t editSubstitutions = 0;
    std::size_t editDeletions = 0;
};

/** Run the fixed-buffer covert channel on an assembled testbed. */
ChannelMeasurement runCovertChannel(testbed::Testbed &tb,
                                    const ChannelRunConfig &cfg);

/** Run the full-sequence chasing channel. */
ChannelMeasurement runChasingChannel(testbed::Testbed &tb,
                                     const ChasingChannelConfig &cfg);

/**
 * Pick @p n monitored buffers in the trojan queue's ring: positions
 * roughly ring/n apart whose combos host exactly one of that ring's
 * buffers (Sec. IV-c). Exposed for tests.
 *
 * @return Chosen combos, in ring order.
 */
std::vector<std::size_t> pickMonitoredBuffers(testbed::Testbed &tb,
                                              std::size_t n);

/**
 * Generate the test symbol stream from the 15-bit LFSR: stream
 * positions [offset, offset + count). The stream is a pure function
 * of (scheme, position), so chunked runs transmit exactly the symbols
 * of the corresponding monolithic positions.
 */
std::vector<unsigned> testSymbols(Scheme scheme, std::size_t count,
                                  std::size_t offset = 0);

} // namespace pktchase::channel

#endif // PKTCHASE_CHANNEL_CAPACITY_HH
