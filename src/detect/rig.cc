#include "rig.hh"

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace pktchase::detect
{

namespace
{

/** One span per published sample, registered on first use. */
const obs::ProfilePhase &
epochPhase()
{
    static const obs::ProfilePhase phase{"detect.epoch", "detect"};
    return phase;
}

} // namespace

DetectionRig::DetectionRig(cache::Hierarchy &hier,
                           nic::IgbDriver &driver, const RigConfig &cfg)
    : hier_(hier), driver_(driver),
      llcProbe_(*this, kDefaultEpochCycles),
      rxProbe_(*this, kDefaultEpochCycles, driver.numQueues())
{
    for (const std::string &name : cfg.detectors)
        detectors_.push_back(makeDetector(name));
    if (!cfg.gateDetector.empty()) {
        gate_ = std::make_unique<GateController>(
            makeDetector(cfg.gateDetector));
    }

    // Refuse to steal another rig's probes: overwriting them would
    // silently starve the first rig (and detach it for good when this
    // one dies), turning its gated defense off with no diagnostic.
    if (hier_.llc().telemetry() || driver_.telemetry()) {
        fatal("DetectionRig: a telemetry probe is already attached to "
              "this hierarchy/driver (one rig per testbed)");
    }
    hier_.llc().attachTelemetry(&llcProbe_);
    driver_.attachTelemetry(&rxProbe_);
}

DetectionRig::~DetectionRig()
{
    hier_.llc().attachTelemetry(nullptr);
    driver_.attachTelemetry(nullptr);
}

template <typename Sample>
void
DetectionRig::fanOut(const Sample &s)
{
    const obs::ScopedSpan span(epochPhase());
    obs::bump(obs::Stat::DetectorEpochs);
    ++published_;
    for (auto &det : detectors_)
        det->onSample(s);
    if (gate_)
        gate_->onSample(s);
}

void
DetectionRig::publish(const LlcSample &s)
{
    fanOut(s);
}

void
DetectionRig::publish(const RxAggSample &s)
{
    fanOut(s);
}

Detector &
DetectionRig::detector(const std::string &name)
{
    for (auto &det : detectors_)
        if (det->name() == name)
            return *det;
    fatal("DetectionRig: no hosted detector named \"" + name + "\"");
}

} // namespace pktchase::detect
