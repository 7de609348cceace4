#include "counters.hh"

namespace pktchase::detect
{

// ------------------------------------------------------ LlcCounterProbe --

LlcCounterProbe::LlcCounterProbe(SampleSink &sink, Cycles epoch_cycles)
    : sink_(sink), width_(epoch_cycles), epochEnd_(epoch_cycles)
{
}

void
LlcCounterProbe::publishEpoch()
{
    // An epoch without events publishes all-zero counts.
    acc_.start = acc_.epoch * width_;
    acc_.end = acc_.start + width_;
    sink_.publish(acc_);
    acc_.cpuMisses = 0;
    acc_.ioConflicts = 0;
}

void
LlcCounterProbe::rollSlow(Cycles now)
{
    const std::uint64_t target = now / width_;
    if (target - acc_.epoch > kMaxCatchUp) {
        // A long idle gap: publish what accumulated, then resume the
        // zero-filled series a bounded distance before the present so
        // detector windows refill with genuine idle epochs without
        // paying for the whole gap.
        publishEpoch();
        acc_.epoch = target - kMaxCatchUp;
    }
    for (; acc_.epoch < target; ++acc_.epoch)
        publishEpoch();
    epochEnd_ = (target + 1) * width_;
}

void
LlcCounterProbe::cpuAccess(bool hit, Cycles now)
{
    roll(now);
    if (!hit)
        ++acc_.cpuMisses;
}

void
LlcCounterProbe::ioInjection(Cycles now)
{
    roll(now);
}

void
LlcCounterProbe::ioLineConflict(Cycles now)
{
    roll(now);
    ++acc_.ioConflicts;
}

// ------------------------------------------------------- RxCounterProbe --

RxCounterProbe::RxCounterProbe(SampleSink &sink, Cycles epoch_cycles,
                               std::size_t queues)
    : sink_(sink), width_(epoch_cycles), epochEnd_(epoch_cycles)
{
    acc_.perQueue.assign(queues, 0);
}

void
RxCounterProbe::rollSlow(Cycles now)
{
    if (acc_.total > 0) {
        acc_.start = acc_.epoch * width_;
        acc_.end = acc_.start + width_;
        sink_.publish(acc_);
        acc_.perQueue.assign(acc_.perQueue.size(), 0);
        acc_.total = 0;
    }
    acc_.epoch = now / width_;
    epochEnd_ = (acc_.epoch + 1) * width_;
}

void
RxCounterProbe::onRecycle(std::size_t queue, Cycles now)
{
    if (queue >= acc_.perQueue.size())
        return;
    if (now >= epochEnd_)
        rollSlow(now);
    ++acc_.perQueue[queue];
    ++acc_.total;
}

} // namespace pktchase::detect
