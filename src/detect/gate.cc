#include "gate.hh"

#include "sim/logging.hh"

namespace pktchase::detect
{

GateController::GateController(std::unique_ptr<Detector> detector,
                               const GateConfig &cfg)
    : detector_(std::move(detector)), cfg_(cfg)
{
    if (!detector_)
        fatal("GateController needs a detector");
    if (cfg_.disarmEpochs == 0)
        fatal("GateController: disarmEpochs must be nonzero");
}

void
GateController::update(const Score *sc)
{
    if (!sc)
        return;
    if (armed_)
        ++armedEpochs_;
    if (sc->alarm) {
        if (!armed_) {
            armed_ = true;
            ++armTransitions_;
        }
        quiet_ = 0;
    } else if (armed_ && ++quiet_ >= cfg_.disarmEpochs) {
        armed_ = false;
        quiet_ = 0;
    }
}

} // namespace pktchase::detect
