#include "igb_driver.hh"

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace pktchase::nic
{

namespace
{

/** Per-queue seed: the driver seed for queue 0 (single-queue streams
 *  are bit-identical to the single-ring model), splitmix-style
 *  derivations for the rest. */
std::uint64_t
queueSeed(std::uint64_t base, std::size_t q)
{
    return base ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(q));
}

} // namespace

// ------------------------------------------------------------ RxQueue --

RxQueue::RxQueue(IgbDriver &drv, std::size_t index,
                 std::size_t ring_size, std::uint64_t seed,
                 std::unique_ptr<BufferPolicy> policy)
    : drv_(drv), index_(index), seed_(seed), ring_(ring_size),
      rng_(seed),
      policy_(policy ? std::move(policy)
                     : std::make_unique<NonePolicy>()),
      traits_(policy_->hookTraits())
{
}

const IgbConfig &
RxQueue::config() const
{
    return drv_.cfg_;
}

mem::PhysMem &
RxQueue::phys()
{
    return drv_.phys_;
}

void
RxQueue::reallocBuffer(std::size_t i)
{
    drv_.phys_.freeFrame(ring_.desc(i).pageBase);
    ring_.desc(i).pageBase = drv_.phys_.allocFrame(mem::Owner::Kernel);
    ring_.desc(i).pageOffset = 0;
    ++stats_.buffersReallocated;
}

void
RxQueue::randomizeRing()
{
    for (std::size_t i = 0; i < ring_.size(); ++i)
        reallocBuffer(i);
    ++stats_.ringRandomizations;
}

Addr
RxQueue::swapPage(std::size_t i, Addr new_page)
{
    if (new_page % pageBytes != 0)
        fatal("RxQueue::swapPage: page base not page aligned");
    const Addr old_page = ring_.desc(i).pageBase;
    ring_.desc(i).pageBase = new_page;
    ring_.desc(i).pageOffset = 0;
    ++stats_.pageSwaps;
    return old_page;
}

void
RxQueue::setPageOffset(std::size_t i, Addr offset)
{
    if (offset != 0 && offset != drv_.cfg_.bufferBytes)
        fatal("RxQueue::setPageOffset: offset must name a page half");
    ring_.desc(i).pageOffset = offset;
}

// ---------------------------------------------------------- IgbDriver --

IgbDriver::IgbDriver(const IgbConfig &cfg, mem::PhysMem &phys,
                     cache::Hierarchy &hier,
                     std::vector<std::unique_ptr<BufferPolicy>> policies)
    : cfg_(cfg), phys_(phys), hier_(hier),
      rss_(cfg.queues, cfg.rssKey)
{
    if (cfg_.bufferBytes != pageBytes / 2)
        fatal("IgbDriver models exactly two 2 KB buffers per page");
    if (cfg_.copyBreak >= cfg_.bufferBytes)
        fatal("IgbDriver: copyBreak must be below the buffer size");
    if (!policies.empty() && policies.size() != cfg_.queues)
        fatal("IgbDriver: need one BufferPolicy per queue (or none)");

    queues_.reserve(cfg_.queues);
    for (std::size_t q = 0; q < cfg_.queues; ++q) {
        queues_.push_back(std::unique_ptr<RxQueue>(new RxQueue(
            *this, q, cfg_.ringSize, queueSeed(cfg_.seed, q),
            policies.empty() ? nullptr : std::move(policies[q]))));
    }

    // One page per descriptor, lower half first: the allocation pattern
    // Sec. III-A describes (page-aligned, half-page-aligned buffers).
    // Queue-major order, so queue 0's layout matches the single-ring
    // model exactly.
    for (auto &q : queues_) {
        for (std::size_t i = 0; i < q->ring_.size(); ++i) {
            q->ring_.desc(i).pageBase =
                phys_.allocFrame(mem::Owner::Kernel);
            q->ring_.desc(i).pageOffset = 0;
        }
    }

    // Small recycled pool of skb data pages for copy-break copies.
    skbPages_ = phys_.allocFrames(64, mem::Owner::Kernel);

    for (auto &q : queues_)
        q->policy_->onInit(*q);
}

IgbDriver::IgbDriver(const IgbConfig &cfg, mem::PhysMem &phys,
                     cache::Hierarchy &hier,
                     std::unique_ptr<BufferPolicy> policy)
    : IgbDriver(cfg, phys, hier,
                [&]() -> std::vector<std::unique_ptr<BufferPolicy>> {
                    if (!policy)
                        return {};
                    if (cfg.queues > 1) {
                        fatal("IgbDriver: a multi-queue driver needs "
                              "one BufferPolicy instance per queue");
                    }
                    std::vector<std::unique_ptr<BufferPolicy>> v;
                    v.push_back(std::move(policy));
                    return v;
                }())
{
}

IgbDriver::~IgbDriver()
{
    for (auto &q : queues_)
        q->policy_->onTeardown(*q);
    for (auto &q : queues_)
        for (std::size_t i = 0; i < q->ring_.size(); ++i)
            phys_.freeFrame(q->ring_.desc(i).pageBase);
    for (Addr page : skbPages_)
        phys_.freeFrame(page);
}

std::size_t
IgbDriver::receive(const Frame &frame, Cycles now)
{
    static const obs::ProfilePhase kDeliverPhase{"nic.deliver", "nic"};
    const obs::ScopedSpan span(kDeliverPhase);
    obs::bump(obs::Stat::FramesDelivered);

    if (frame.bytes < minFrameBytes || frame.bytes > maxFrameBytes)
        fatal("IgbDriver::receive: frame size outside 802.3 limits");

    RxQueue &q = *queues_[rss_.queueFor(frame.flow)];
    // The no-defense fast path skips a no-op hook's dispatch.
    if (!q.traits_.packetNoop) {
        obs::bump(obs::Stat::PolicyHooks);
        q.policy_->onPacket(q, q.stats_.framesReceived);
    }

    const std::size_t index = q.ring_.head();

    // NIC DMA: with DDIO the blocks land in the LLC; without, they go
    // to memory and the driver's reads below demand-fetch them.
    hier_.dmaWrite(q.ring_.desc(index).bufferAddr(), frame.bytes, now);
    q.ring_.advance();

    // Without DDIO the driver sees the frame only after the I/O write
    // has reached memory and the interrupt fired.
    const Cycles seen = hier_.ddioEnabled()
        ? now : now + cfg_.ioToDriverLatency;
    processRx(q, index, frame, seen);

    ++q.stats_.framesReceived;
    if (q.tap_)
        q.tap_(index, frame, now);
    return globalIndex(q.index_, index);
}

void
IgbDriver::processRx(RxQueue &q, std::size_t desc_index,
                     const Frame &frame, Cycles now)
{
    RxDescriptor &desc = q.ring_.desc(desc_index);
    const Addr buf = desc.bufferAddr();

    // Header read plus the unconditional next-block prefetch: this is
    // why 1-block packets still produce block-1 activity in Fig. 8.
    hier_.cpuRead(buf, now);
    hier_.cpuRead(buf + blockBytes, now);

    const bool dropped = frame.protocol == Protocol::Unknown;
    if (dropped)
        ++q.stats_.framesDropped;

    if (frame.bytes <= cfg_.copyBreak) {
        // igb_add_rx_frag small path: memcpy into the skb and reuse the
        // buffer as-is (Fig. 3), unless it sits on a remote NUMA node.
        ++q.stats_.copyBreakFrames;
        const Addr skb = skbPages_[nextSkb_];
        nextSkb_ = (nextSkb_ + 1) % skbPages_.size();
        for (unsigned b = 0; b < frame.blocks(); ++b) {
            hier_.cpuRead(buf + static_cast<Addr>(b) * blockBytes, now);
            if (!dropped) {
                hier_.cpuWrite(skb + static_cast<Addr>(b) * blockBytes,
                               now);
            }
        }
        if (q.rng_.nextBool(cfg_.remoteNumaProb))
            q.reallocBuffer(desc_index);
    } else {
        // Large path: the page is attached to the skb as a fragment.
        // The stack touches the payload when it consumes the skb; a
        // dropped frame's payload is never read by the CPU (without
        // DDIO those blocks therefore never enter the cache).
        if (!dropped) {
            const Cycles touch = hier_.ddioEnabled()
                ? now : now + cfg_.payloadTouchDelay;
            for (unsigned b = 2; b < frame.blocks(); ++b) {
                hier_.cpuRead(buf + static_cast<Addr>(b) * blockBytes,
                              touch);
            }
        }
        // igb_can_reuse_rx_page (Fig. 4): remote pages are reallocated;
        // otherwise flip to the other half of the page.
        if (q.rng_.nextBool(cfg_.remoteNumaProb)) {
            q.reallocBuffer(desc_index);
        } else {
            desc.pageOffset ^= cfg_.bufferBytes;
            ++q.stats_.pageFlips;
        }
    }

    if (!q.traits_.recycleNoop) {
        obs::bump(obs::Stat::PolicyHooks);
        q.policy_->onRecycle(q, desc_index);
    }

    // Recycle telemetry last: an epoch it publishes can arm the gate,
    // so its place fixes the frame from which gated policies act.
    if (telem_)
        telem_->onRecycle(q.index_, now);
}

IgbStats
IgbDriver::stats() const
{
    IgbStats sum;
    for (const auto &q : queues_) {
        const IgbStats &s = q->stats_;
        sum.framesReceived += s.framesReceived;
        sum.framesDropped += s.framesDropped;
        sum.copyBreakFrames += s.copyBreakFrames;
        sum.pageFlips += s.pageFlips;
        sum.buffersReallocated += s.buffersReallocated;
        sum.pageSwaps += s.pageSwaps;
        sum.ringRandomizations += s.ringRandomizations;
    }
    return sum;
}

std::vector<std::size_t>
IgbDriver::queueGroundTruthSets(std::size_t q) const
{
    const RxRing &ring = queues_[q]->ring_;
    std::vector<std::size_t> sets;
    sets.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i)
        sets.push_back(hier_.llc().globalSet(ring.desc(i).pageBase));
    return sets;
}

std::vector<std::size_t>
IgbDriver::groundTruthSets() const
{
    std::vector<std::size_t> sets;
    sets.reserve(totalDescriptors());
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        const std::vector<std::size_t> qs = queueGroundTruthSets(q);
        sets.insert(sets.end(), qs.begin(), qs.end());
    }
    return sets;
}

} // namespace pktchase::nic
