/**
 * @file
 * Alarm-driven arming gate for the detector-gated defenses.
 *
 * A GateController owns one Detector, feeds it every sample, and
 * maintains a single armed/disarmed bit with hysteresis: any alarmed
 * score arms immediately; disarming requires disarmEpochs consecutive
 * alarm-free scores, so a spy cannot flap the defense off between its
 * probe bursts. Every defense::GatedPolicy instance of a testbed (one
 * per receive queue) consults the same controller, so all rings arm
 * and disarm together -- a per-queue defense against a spy that
 * chases every queue must.
 */

#ifndef PKTCHASE_DETECT_GATE_HH
#define PKTCHASE_DETECT_GATE_HH

#include <cstdint>
#include <memory>

#include "detect/detector.hh"

namespace pktchase::detect
{

/** Hysteresis tuning. */
struct GateConfig
{
    /**
     * Consecutive alarm-free scores required before disarming. At the
     * default telemetry epoch (~6 us) the default rides out ~0.4 ms
     * of attacker silence.
     */
    unsigned disarmEpochs = 64;
};

/**
 * Owns a detector and derives the armed bit from its alarm stream.
 */
class GateController
{
  public:
    GateController(std::unique_ptr<Detector> detector,
                   const GateConfig &cfg = {});

    /** Score one sample with the detector and update the armed bit. */
    void onSample(const LlcSample &s) { update(detector_->onSample(s)); }
    void onSample(const RxAggSample &s) { update(detector_->onSample(s)); }

    /** Whether the gated defense is currently armed. */
    bool armed() const { return armed_; }

    /**
     * Operator override: pin the armed bit (tests, incident
     * response). The next consumed score resumes normal hysteresis
     * from the pinned state.
     */
    void forceArmed(bool armed) { armed_ = armed; quiet_ = 0; }

    /** Disarmed -> armed transitions so far. */
    std::uint64_t armTransitions() const { return armTransitions_; }

    /** Scores consumed while armed (armed epochs, roughly). */
    std::uint64_t armedEpochs() const { return armedEpochs_; }

    const Detector &detector() const { return *detector_; }
    const GateConfig &config() const { return cfg_; }

  private:
    void update(const Score *sc);

    std::unique_ptr<Detector> detector_;
    GateConfig cfg_;
    bool armed_ = false;
    unsigned quiet_ = 0; ///< Consecutive alarm-free scores while armed.
    std::uint64_t armTransitions_ = 0;
    std::uint64_t armedEpochs_ = 0;
};

} // namespace pktchase::detect

#endif // PKTCHASE_DETECT_GATE_HH
