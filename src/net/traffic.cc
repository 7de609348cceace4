#include "traffic.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace pktchase::net
{

Cycles
wireCycles(const nic::Frame &frame)
{
    return secondsToCycles(frame.wireSeconds(linkBitsPerSecond));
}

double
maxFrameRate(Addr frame_bytes)
{
    const double bits =
        static_cast<double>(
            (frame_bytes + nic::wireOverheadBytes) * 8);
    return linkBitsPerSecond / bits;
}

// ----------------------------------------------------- ConstantStream --

ConstantStream::ConstantStream(Addr frame_bytes, double rate_pps,
                               std::uint64_t count, nic::Protocol proto,
                               std::uint32_t flow)
    : bytes_(frame_bytes), remaining_(count), unbounded_(count == 0),
      proto_(proto), flow_(flow)
{
    const double line = maxFrameRate(frame_bytes);
    const double rate = (rate_pps <= 0.0) ? line : std::min(rate_pps, line);
    gap_ = secondsToCycles(1.0 / rate);
}

bool
ConstantStream::next(nic::Frame &frame, Cycles &gap)
{
    if (!unbounded_) {
        if (remaining_ == 0)
            return false;
        --remaining_;
    }
    frame.bytes = bytes_;
    frame.protocol = proto_;
    frame.flow = flow_;
    frame.id = nextId_++;
    gap = gap_;
    return true;
}

// ------------------------------------------------- PoissonBackground --

PoissonBackground::PoissonBackground(double rate_pps, Rng rng,
                                     std::uint64_t count,
                                     std::uint32_t flows,
                                     std::uint32_t flow_base)
    : ratePps_(rate_pps), rng_(rng), remaining_(count),
      unbounded_(count == 0), flows_(flows), flowBase_(flow_base)
{
    if (rate_pps <= 0.0)
        fatal("PoissonBackground requires a positive rate");
    if (flows_ == 0)
        fatal("PoissonBackground requires at least one flow");
}

Addr
PoissonBackground::sampleSize(Rng &rng)
{
    // Bimodal mix per the Internet packet-size observations the paper
    // cites: ~45% small control frames, ~40% MTU-sized data, the rest
    // uniform in between.
    const double u = rng.nextDouble();
    if (u < 0.45)
        return static_cast<Addr>(rng.nextRange(64, 128));
    if (u < 0.85)
        return static_cast<Addr>(rng.nextRange(1400, 1518));
    return static_cast<Addr>(rng.nextRange(129, 1399));
}

bool
PoissonBackground::next(nic::Frame &frame, Cycles &gap)
{
    if (!unbounded_) {
        if (remaining_ == 0)
            return false;
        --remaining_;
    }
    frame.bytes = sampleSize(rng_);
    frame.protocol = nic::Protocol::Udp;
    // Single-flow backgrounds draw nothing extra, so the size/gap
    // stream is unchanged from the single-flow model.
    frame.flow = flows_ > 1
        ? flowBase_ + static_cast<std::uint32_t>(
              rng_.nextBounded(flows_))
        : flowBase_;
    frame.id = nextId_++;
    gap = secondsToCycles(rng_.nextExponential(ratePps_));
    return true;
}

// --------------------------------------------------- ReorderingSource --

ReorderingSource::ReorderingSource(std::unique_ptr<TrafficSource> inner,
                                   double swap_prob, std::uint64_t seed)
    : inner_(std::move(inner)), swapProb_(swap_prob), rng_(seed)
{
    if (!inner_)
        fatal("ReorderingSource requires an inner source");
}

bool
ReorderingSource::next(nic::Frame &frame, Cycles &gap)
{
    if (havePending_) {
        havePending_ = false;
        frame = pending_;
        gap = pendingGap_;
        return true;
    }
    if (!inner_->next(frame, gap))
        return false;
    if (swapProb_ > 0.0 && rng_.nextBool(swapProb_)) {
        nic::Frame second;
        Cycles second_gap = 0;
        if (inner_->next(second, second_gap)) {
            // Deliver the later frame first; keep both gaps so the
            // aggregate pacing is unchanged.
            pending_ = frame;
            pendingGap_ = second_gap;
            frame = second;
        }
    }
    return true;
}

// ------------------------------------------------------------- FlowMix --

void
FlowMix::add(std::unique_ptr<TrafficSource> source)
{
    if (!source)
        fatal("FlowMix::add requires a source");
    if (primed_)
        fatal("FlowMix::add: sources must be added before the first "
              "next()");
    Lane lane;
    lane.source = std::move(source);
    lanes_.push_back(std::move(lane));
}

void
FlowMix::refill(Lane &lane)
{
    Cycles gap = 0;
    lane.alive = lane.source->next(lane.pending, gap);
    if (lane.alive)
        lane.at += gap;
}

bool
FlowMix::next(nic::Frame &frame, Cycles &gap)
{
    if (!primed_) {
        primed_ = true;
        for (Lane &lane : lanes_)
            refill(lane);
    }
    Lane *earliest = nullptr;
    for (Lane &lane : lanes_) {
        if (lane.alive && (!earliest || lane.at < earliest->at))
            earliest = &lane;
    }
    if (!earliest)
        return false;
    frame = earliest->pending;
    gap = earliest->at - last_;
    last_ = earliest->at;
    refill(*earliest);
    return true;
}

// -------------------------------------------------------- ReplayStream --

ReplayStream::ReplayStream(std::vector<nic::Frame> frames, double rate_pps)
    : frames_(std::move(frames))
{
    if (rate_pps <= 0.0)
        fatal("ReplayStream requires a positive rate");
    gap_ = secondsToCycles(1.0 / rate_pps);
}

bool
ReplayStream::next(nic::Frame &frame, Cycles &gap)
{
    if (pos_ >= frames_.size())
        return false;
    frame = frames_[pos_++];
    gap = gap_;
    return true;
}

// --------------------------------------------------------- TrafficPump --

TrafficPump::TrafficPump(EventQueue &eq, nic::IgbDriver &driver,
                         std::unique_ptr<TrafficSource> source,
                         Cycles start, double jitter_sigma,
                         std::uint64_t seed)
    : eq_(eq), driver_(driver), source_(std::move(source)),
      jitterSigma_(jitter_sigma), rng_(seed)
{
    if (!source_)
        fatal("TrafficPump requires a source");
    scheduleNext(start);
}

void
TrafficPump::scheduleNext(Cycles earliest)
{
    Cycles gap = 0;
    if (!source_->next(nextFrame_, gap)) {
        exhausted_ = true;
        return;
    }

    double when = static_cast<double>(earliest) + static_cast<double>(gap);
    if (jitterSigma_ > 0.0)
        when += std::abs(rng_.nextGaussian(0.0, jitterSigma_));

    // The link serializes frames: this one cannot start before the
    // previous frame's last bit arrived.
    Cycles arrival = static_cast<Cycles>(std::max(when, 0.0));
    arrival = std::max(arrival, wireFreeAt_);
    arrival = std::max(arrival, eq_.now());
    wireFreeAt_ = arrival + wireCycles(nextFrame_);

    eq_.schedule(arrival, [this] { deliver(); });
}

void
TrafficPump::deliver()
{
    // The event runs at nextFrame_'s arrival cycle.
    const Cycles now = eq_.now();
    driver_.receive(nextFrame_, now);
    ++delivered_;
    if (observer_)
        observer_(nextFrame_, now);
    scheduleNext(now);
}

} // namespace pktchase::net
