/**
 * @file
 * The detection rig: one assembled telemetry + detection stack over a
 * (hierarchy, driver) pair.
 *
 * Construction wires everything: an LlcCounterProbe attached to the
 * LLC and an RxCounterProbe attached to the driver, both sampling at
 * detect::kDefaultEpochCycles; one hosted Detector per requested name
 * (score-only consumers -- the figD1 ROC cells read their streams);
 * and optionally one GateController (for detector-gated defenses).
 * Every detector and the gate run at their default tuning. The rig is
 * the probes' sample sink: it hands every sample to the hosted
 * detectors in RigConfig order, then to the gate. Destruction detaches
 * the probes, restoring the zero-cost off-path.
 *
 * A rig is testbed-local: campaign cells each own a private rig, so
 * the detection layer inherits the runtime's determinism contract.
 */

#ifndef PKTCHASE_DETECT_RIG_HH
#define PKTCHASE_DETECT_RIG_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "detect/counters.hh"
#include "detect/detector.hh"
#include "detect/gate.hh"
#include "nic/igb_driver.hh"

namespace pktchase::detect
{

/** What to assemble. */
struct RigConfig
{
    /** Hosted score-only detectors, by name. */
    std::vector<std::string> detectors;

    /** Detector arming a gate; "" = no gate. */
    std::string gateDetector;
};

/**
 * Owns the probes, the hosted detectors, and the gate.
 */
class DetectionRig final : public SampleSink
{
  public:
    DetectionRig(cache::Hierarchy &hier, nic::IgbDriver &driver,
                 const RigConfig &cfg);
    ~DetectionRig();

    DetectionRig(const DetectionRig &) = delete;
    DetectionRig &operator=(const DetectionRig &) = delete;

    /**
     * Fan one sample out: the hosted detectors, then the gate. Each
     * published sample, whatever its source, is one `detect.epoch`
     * profile span and one obs::Stat::DetectorEpochs bump.
     */
    void publish(const LlcSample &s) override;
    void publish(const RxAggSample &s) override;

    /** Samples published so far, both sources included. */
    std::uint64_t published() const { return published_; }

    /** Hosted detector named @p name; fatal when absent. */
    Detector &detector(const std::string &name);

    /** The gate, or nullptr when RigConfig::gateDetector was empty. */
    GateController *gate() { return gate_.get(); }
    const GateController *gate() const { return gate_.get(); }

  private:
    template <typename Sample> void fanOut(const Sample &s);

    cache::Hierarchy &hier_;
    nic::IgbDriver &driver_;
    std::uint64_t published_ = 0;
    LlcCounterProbe llcProbe_;
    RxCounterProbe rxProbe_;
    std::vector<std::unique_ptr<Detector>> detectors_;
    std::unique_ptr<GateController> gate_;
};

} // namespace pktchase::detect

#endif // PKTCHASE_DETECT_RIG_HH
