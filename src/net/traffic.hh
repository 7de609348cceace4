/**
 * @file
 * Network traffic generation.
 *
 * A TrafficSource produces frames with inter-arrival gaps; a
 * TrafficPump drives a source into the driver through the event queue.
 * Pacing models a 1 Gb/s Ethernet link: a frame cannot arrive before
 * the previous one has left the wire, and arrival times carry Gaussian
 * network jitter (the paper's "latency is fluctuating frequently",
 * which forces the synchronized-clock covert encoding).
 */

#ifndef PKTCHASE_NET_TRAFFIC_HH
#define PKTCHASE_NET_TRAFFIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nic/frame.hh"
#include "nic/igb_driver.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace pktchase::net
{

/** Link speed of the modelled network. */
constexpr double linkBitsPerSecond = 1e9;

/** Wire occupancy of a frame, in core cycles. */
Cycles wireCycles(const nic::Frame &frame);

/** Maximum frame rate for a given frame size on the 1 GbE link. */
double maxFrameRate(Addr frame_bytes);

/**
 * Producer of a (possibly unbounded) frame stream.
 */
class TrafficSource
{
  public:
    virtual ~TrafficSource() = default;

    /**
     * Produce the next frame.
     *
     * @param frame Out: the frame to deliver.
     * @param gap   Out: cycles between the previous arrival and this
     *              one (before jitter and line-rate clamping).
     * @return false when the stream is exhausted.
     */
    virtual bool next(nic::Frame &frame, Cycles &gap) = 0;
};

/** Constant-size, constant-rate stream (the profiling-phase sender). */
class ConstantStream : public TrafficSource
{
  public:
    /**
     * @param frame_bytes  Size of every frame.
     * @param rate_pps     Packets per second; 0 means line rate.
     * @param count        Number of frames; 0 means unbounded.
     * @param proto        Protocol tag for the frames.
     * @param flow         Flow id of every frame (one connection, so
     *                     RSS steers the stream to one queue).
     */
    ConstantStream(Addr frame_bytes, double rate_pps, std::uint64_t count,
                   nic::Protocol proto = nic::Protocol::Unknown,
                   std::uint32_t flow = 0);

    bool next(nic::Frame &frame, Cycles &gap) override;

  private:
    Addr bytes_;
    Cycles gap_;
    std::uint64_t remaining_;
    bool unbounded_;
    nic::Protocol proto_;
    std::uint32_t flow_;
    std::uint64_t nextId_ = 0;
};

/**
 * Poisson background noise with the bimodal Internet size mix the paper
 * cites (Sinha et al.): mostly small control frames and MTU-sized data
 * frames, a thin tail in between.
 */
class PoissonBackground : public TrafficSource
{
  public:
    /**
     * @param rate_pps Mean arrival rate.
     * @param rng      Private generator.
     * @param count    Frames to produce; 0 means unbounded.
     * @param flows    Flow population: each frame is tagged with one
     *                 of this many flow ids, drawn uniformly. The
     *                 default 1 keeps the draw stream identical to the
     *                 single-flow model (no extra RNG consumption).
     * @param flow_base First flow id of the population.
     */
    PoissonBackground(double rate_pps, Rng rng, std::uint64_t count = 0,
                      std::uint32_t flows = 1,
                      std::uint32_t flow_base = 1u << 16);

    bool next(nic::Frame &frame, Cycles &gap) override;

    /** Sample one frame size from the bimodal mix. */
    static Addr sampleSize(Rng &rng);

  private:
    double ratePps_;
    Rng rng_;
    std::uint64_t remaining_;
    bool unbounded_;
    std::uint32_t flows_;
    std::uint32_t flowBase_;
    std::uint64_t nextId_ = 1u << 20;
};

/**
 * Wraps a source and swaps adjacent frames with a given probability,
 * modelling cross-queue reordering in the switched network. The paper
 * observes packets "start to arrive out-of-order" once the covert
 * send rate reaches 640 kbps -- reordering grows as inter-frame gaps
 * shrink toward the network's delay variation.
 */
class ReorderingSource : public TrafficSource
{
  public:
    ReorderingSource(std::unique_ptr<TrafficSource> inner,
                     double swap_prob, std::uint64_t seed);

    bool next(nic::Frame &frame, Cycles &gap) override;

  private:
    std::unique_ptr<TrafficSource> inner_;
    double swapProb_;
    Rng rng_;
    bool havePending_ = false;
    nic::Frame pending_;
    Cycles pendingGap_ = 0;
};

/**
 * Merges several sources into one arrival-ordered stream: each inner
 * source keeps its own pacing, and next() always emits the earliest
 * pending frame (stable by add order on ties). This is how multi-flow
 * mixes reach a multi-queue driver through one TrafficPump -- e.g. a
 * ConstantStream per victim connection plus a many-flow
 * PoissonBackground, each tagged with distinct flow ids so RSS spreads
 * them across receive queues.
 */
class FlowMix : public TrafficSource
{
  public:
    /** Add an inner source (owned). Call before the first next(). */
    void add(std::unique_ptr<TrafficSource> source);

    bool next(nic::Frame &frame, Cycles &gap) override;

  private:
    struct Lane
    {
        std::unique_ptr<TrafficSource> source;
        nic::Frame pending;
        Cycles at = 0;     ///< Absolute arrival of the pending frame.
        bool alive = false;
    };

    /** Pull the next frame of @p lane; marks it dead on exhaustion. */
    void refill(Lane &lane);

    std::vector<Lane> lanes_;
    Cycles last_ = 0;
    bool primed_ = false;
};

/** Replays an explicit frame list at a fixed rate (web traces, tests). */
class ReplayStream : public TrafficSource
{
  public:
    ReplayStream(std::vector<nic::Frame> frames, double rate_pps);

    bool next(nic::Frame &frame, Cycles &gap) override;

  private:
    std::vector<nic::Frame> frames_;
    std::size_t pos_ = 0;
    Cycles gap_;
};

/**
 * Drives a TrafficSource into an IgbDriver via the event queue,
 * enforcing line-rate serialization and applying arrival jitter.
 * Every frame is its own event at its arrival cycle, and that event
 * calls IgbDriver::receive(): the driver fills and recycles its
 * descriptors one frame at a time, in ring order (Sec. III-A).
 */
class TrafficPump
{
  public:
    /**
     * @param eq          Event queue shared by the experiment.
     * @param driver      Receive path.
     * @param source      Frame producer (owned).
     * @param start       Cycle of the first arrival.
     * @param jitterSigma Gaussian jitter on each arrival, in cycles.
     * @param seed        Seed for the jitter generator.
     */
    TrafficPump(EventQueue &eq, nic::IgbDriver &driver,
                std::unique_ptr<TrafficSource> source, Cycles start,
                double jitter_sigma = 0.0, std::uint64_t seed = 23);

    /** Frames delivered so far. */
    std::uint64_t delivered() const { return delivered_; }

    /** Whether the source ran dry. */
    bool exhausted() const { return exhausted_; }

    /**
     * Observe every delivery (frame, arrival cycle), right after the
     * driver received the frame. Used by harnesses that need
     * ground-truth arrival times for scoring.
     */
    void
    setObserver(std::function<void(const nic::Frame &, Cycles)> obs)
    {
        observer_ = std::move(obs);
    }

  private:
    EventQueue &eq_;
    nic::IgbDriver &driver_;
    std::unique_ptr<TrafficSource> source_;
    double jitterSigma_;
    Rng rng_;
    Cycles wireFreeAt_ = 0;  ///< When the link finishes the last frame.
    std::uint64_t delivered_ = 0;
    bool exhausted_ = false;
    std::function<void(const nic::Frame &, Cycles)> observer_;
    nic::Frame nextFrame_;       ///< Pulled but not yet delivered.

    /** Pull the next frame and schedule its delivery event. */
    void scheduleNext(Cycles earliest);

    /** Delivery event body: receive nextFrame_, then schedule the next. */
    void deliver();
};

} // namespace pktchase::net

#endif // PKTCHASE_NET_TRAFFIC_HH
