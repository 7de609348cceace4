/**
 * @file
 * The covert-channel spy: an unprivileged local process with no network
 * access that decodes symbols from LLC activity (Sec. IV-b).
 *
 * For each monitored ring buffer the spy watches three eviction sets:
 * the buffer's second block (the clock -- it fires for every packet
 * because of the driver prefetch), third block, and fourth block. A
 * decode window of three samples absorbs wide peaks (one packet's
 * activity spanning two samples) and arrival skew.
 *
 * listen() samples one monitor per buffer through attack::sampleRounds,
 * records each buffer's raw (clock, b2, b3) sample train, and decodes
 * the trains into the symbol stream. The monitored combos are plain
 * LLC sets, so the spy works unchanged on a multi-queue NIC as long as
 * they host buffers of the ring RSS steers the trojan's flow to
 * (pickMonitoredBuffers picks them there).
 */

#ifndef PKTCHASE_CHANNEL_SPY_HH
#define PKTCHASE_CHANNEL_SPY_HH

#include <cstdint>
#include <vector>

#include "attack/eviction_set.hh"
#include "attack/prime_probe.hh"
#include "attack/probe_params.hh"
#include "channel/encoding.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::channel
{

/** Spy sampling parameters. */
struct SpyConfig
{
    double probeRateHz = 14000;  ///< Fig. 11 sweeps {7, 14, 28} kHz.

    /** Shared miss-threshold/ways calibration. */
    attack::ProbeParams probe;

    unsigned decodeWindow = 3;   ///< Samples per decode window.
};

/** One decoded symbol with its detection time. */
struct SymbolEvent
{
    Cycles when = 0;
    unsigned symbol = 0;
    std::size_t buffer = 0; ///< Index into the monitored buffer list.
};

/** Result of a listening session. */
struct ListenResult
{
    std::vector<SymbolEvent> events; ///< Time-ordered decoded symbols.
    std::uint64_t rounds = 0;        ///< Probe rounds executed.

    /** Just the symbol values, in time order. */
    std::vector<unsigned> symbols() const;
};

/**
 * Samples the monitored buffers and decodes the symbol stream.
 */
class CovertSpy
{
  public:
    /**
     * @param hier          Timing oracle.
     * @param groups        Spy pool partition.
     * @param buffer_combos Combos of the monitored ring buffers (each
     *                      should host exactly one buffer).
     * @param scheme        Expected alphabet.
     * @param cfg           Sampling parameters.
     */
    CovertSpy(cache::Hierarchy &hier, const attack::ComboGroups &groups,
              std::vector<std::size_t> buffer_combos, Scheme scheme,
              const SpyConfig &cfg);

    /**
     * Sample until @p horizon (traffic pumps already scheduled on
     * @p eq), then decode.
     */
    ListenResult listen(EventQueue &eq, Cycles horizon);

  private:
    /** One buffer's probe round: (time, clock, b2, b3). */
    struct RawSample
    {
        Cycles when;
        bool clock, b2, b3;
    };

    /** Decode one buffer's sample train into symbol events. */
    std::vector<SymbolEvent>
    decodeBuffer(std::size_t buffer,
                 const std::vector<RawSample> &samples) const;

    Scheme scheme_;
    SpyConfig cfg_;
    std::vector<attack::PrimeProbeMonitor> buffers_; ///< One per buffer.
};

} // namespace pktchase::channel

#endif // PKTCHASE_CHANNEL_SPY_HH
