/**
 * @file
 * Model of the Intel Gigabit Ethernet (IGB) driver receive path.
 *
 * Reproduces the behaviours Sec. III-A deconstructs (Figs. 3-4):
 *  - per-queue rings of 256 rx buffers of 2 KB, two per 4 KB page,
 *    allocated once at init and recycled for the driver's lifetime;
 *  - copy-break: frames <= 256 B are memcpy'd into a socket buffer and
 *    the rx buffer is reused as-is;
 *  - larger frames attach the page to the skb as a fragment and flip
 *    `page_offset ^= 2048`, so consecutive large packets alternate
 *    between the two halves of the page;
 *  - the driver always touches the first two blocks of the buffer (the
 *    header read plus the unconditional next-block prefetch that makes
 *    1-block packets light up block 1 in Fig. 8);
 *  - unknown-protocol frames are dropped after the header check with no
 *    stack activity;
 *  - optional remote-NUMA reallocation (the unlikely branch in
 *    igb_can_reuse_rx_page).
 *
 * The paper deconstructs a single-ring configuration; the model
 * generalizes it to N receive queues with RSS flow steering
 * (nic/rss.hh): each frame's flow id is hashed to pick the RxQueue
 * whose ring the DMA write fills. Every queue owns its descriptor
 * ring, its own statistics, a private RNG stream, and its own
 * nic::BufferPolicy instance, so software ring defenses operate
 * per queue exactly as per-queue NAPI contexts would. With
 * queues == 1 (the default, nic::kDefaultQueues) the receive path is
 * bit-identical to the paper's single-ring model -- the property
 * tests/nic_golden_trace_test.cc pins against pre-refactor goldens.
 *
 * The Sec. VI software defenses are not hardwired here: the queue
 * calls the hooks of its pluggable nic::BufferPolicy at fixed points
 * of the receive path (see buffer_policy.hh for the hook contract) and
 * exposes a narrow mutation surface for policies to rearrange the
 * ring's backing pages.
 */

#ifndef PKTCHASE_NIC_IGB_DRIVER_HH
#define PKTCHASE_NIC_IGB_DRIVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "nic/buffer_policy.hh"
#include "nic/frame.hh"
#include "nic/rss.hh"
#include "nic/rx_ring.hh"
#include "nic/telemetry.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace pktchase::nic
{

/** Driver configuration knobs. */
struct IgbConfig
{
    std::size_t queues = kDefaultQueues; ///< Receive queues (RSS).
    std::size_t ringSize = 256;       ///< Descriptors per queue.
    Addr bufferBytes = 2048;          ///< Half a page per buffer.
    Addr copyBreak = 256;             ///< IGB_RX_HDR_LEN.
    double remoteNumaProb = 0.0;      ///< P(buffer lands on remote node).

    /** Latency from I/O write to driver header read (non-DDIO path). */
    Cycles ioToDriverLatency = 12000;

    /** Extra delay before the stack touches a large payload (no DDIO). */
    Cycles payloadTouchDelay = 4000;

    std::uint64_t rssKey = RssSteering::kDefaultKey;
    std::uint64_t seed = 11;
};

/** Receive-path statistics (kept per queue; see IgbDriver::stats). */
struct IgbStats
{
    std::uint64_t framesReceived = 0;
    std::uint64_t framesDropped = 0;   ///< Unknown protocol.
    std::uint64_t copyBreakFrames = 0;
    std::uint64_t pageFlips = 0;
    std::uint64_t buffersReallocated = 0; ///< Allocator round-trips.
    std::uint64_t pageSwaps = 0;       ///< Pool rotations (no allocator).
    std::uint64_t ringRandomizations = 0;
};

class IgbDriver;

/**
 * One receive queue: a descriptor ring plus the queue's own
 * statistics, RNG stream, and BufferPolicy instance. The policy
 * mutation surface lives here, so a per-queue policy always acts on
 * its own ring and its costs land in its own queue's statistics.
 */
class RxQueue
{
  public:
    RxQueue(const RxQueue &) = delete;
    RxQueue &operator=(const RxQueue &) = delete;

    /** Position of this queue within the driver. */
    std::size_t index() const { return index_; }

    /** This queue's descriptor ring. */
    const RxRing &ring() const { return ring_; }

    /** This queue's receive-path statistics. */
    const IgbStats &stats() const { return stats_; }

    /** The queue's software ring defense. */
    const BufferPolicy &policy() const { return *policy_; }

    /** The owning driver's configuration. */
    const IgbConfig &config() const;

    /**
     * The queue's seed: the driver seed for queue 0 (so single-queue
     * streams match the single-ring model draw for draw), a splitmix
     * derivation for the others. Policies derive private streams from
     * this.
     */
    std::uint64_t seed() const { return seed_; }

    /**
     * Per-queue delivery observer: called for every frame this queue
     * receives, after the driver finished processing it, with the
     * ring slot that was filled and the arrival cycle. Harnesses use
     * the tap as per-queue ground truth (e.g. scoring a packet
     * chase against what each ring actually received); taps must not
     * mutate driver state.
     */
    using DeliveryTap =
        std::function<void(std::size_t slot, const Frame &frame,
                           Cycles when)>;

    /** Install @p tap (replaces any previous one; {} clears it). */
    void setDeliveryTap(DeliveryTap tap) { tap_ = std::move(tap); }

    // ------------------------------------------------------------------
    // Policy mutation surface: BufferPolicy hooks rearrange this
    // queue's backing pages only through these, so the defense cost
    // statistics stay consistent across policies.
    // ------------------------------------------------------------------

    /**
     * Replace the page backing descriptor @p i with a fresh frame from
     * the allocator (counts one buffer reallocation).
     */
    void reallocBuffer(std::size_t i);

    /** Reallocate every descriptor (counts one ring randomization). */
    void randomizeRing();

    /**
     * Exchange descriptor @p i's page for @p new_page without touching
     * the allocator (counts one page swap); the buffer offset resets to
     * the lower half.
     *
     * @return The page previously backing the descriptor.
     */
    Addr swapPage(std::size_t i, Addr new_page);

    /** Move descriptor @p i's buffer to @p offset within its page. */
    void setPageOffset(std::size_t i, Addr offset);

    /** Frame source, for policies that own spare pages. */
    mem::PhysMem &phys();

  private:
    friend class IgbDriver;

    RxQueue(IgbDriver &drv, std::size_t index, std::size_t ring_size,
            std::uint64_t seed, std::unique_ptr<BufferPolicy> policy);

    IgbDriver &drv_;
    std::size_t index_;
    std::uint64_t seed_;
    RxRing ring_;
    Rng rng_;
    IgbStats stats_;
    std::unique_ptr<BufferPolicy> policy_;
    BufferPolicy::HookTraits traits_; ///< policy_->hookTraits(), cached.
    DeliveryTap tap_;
};

/**
 * The driver model: owns the queues, the buffers, and the receive
 * path. Frames are steered to queues by RSS over their flow id.
 */
class IgbDriver
{
  public:
    /**
     * Initialize the driver: allocate ringSize pages per queue (one
     * buffer per page, using the lower half first, per the IGB
     * allocation pattern) and populate the descriptor rings in queue
     * order.
     *
     * @param cfg      Driver configuration.
     * @param phys     Kernel page frame source.
     * @param hier     Memory hierarchy for buffer/skb accesses.
     * @param policies Software ring defense per queue; must be empty
     *                 (every queue gets NonePolicy) or exactly
     *                 cfg.queues entries.
     */
    IgbDriver(const IgbConfig &cfg, mem::PhysMem &phys,
              cache::Hierarchy &hier,
              std::vector<std::unique_ptr<BufferPolicy>> policies);

    /**
     * Single-policy convenience for the single-queue configuration;
     * fatal when cfg.queues > 1 and a policy is given (per-queue
     * instances are required -- policies carry queue-local state).
     */
    IgbDriver(const IgbConfig &cfg, mem::PhysMem &phys,
              cache::Hierarchy &hier,
              std::unique_ptr<BufferPolicy> policy = nullptr);

    ~IgbDriver();

    IgbDriver(const IgbDriver &) = delete;
    IgbDriver &operator=(const IgbDriver &) = delete;

    /**
     * Receive one frame at simulated time @p now: RSS steers the flow
     * to a queue, the NIC DMA-writes that queue's head descriptor's
     * buffer, then the driver processes it (header read, prefetch,
     * copy-break or page flip, recycling).
     *
     * @return Global index of the descriptor that was filled
     *         (queue * ringSize + slot; equal to the slot for
     *         single-queue configurations).
     */
    std::size_t receive(const Frame &frame, Cycles now);

    /** Number of receive queues. */
    std::size_t numQueues() const { return queues_.size(); }

    /** Receive queue @p q. */
    RxQueue &queue(std::size_t q) { return *queues_[q]; }
    const RxQueue &queue(std::size_t q) const { return *queues_[q]; }

    /** The flow steering function. */
    const RssSteering &rss() const { return rss_; }

    /** Descriptor count summed over all queues. */
    std::size_t totalDescriptors() const
    {
        return queues_.size() * cfg_.ringSize;
    }

    /** Global descriptor index of @p slot in queue @p q. */
    std::size_t globalIndex(std::size_t q, std::size_t slot) const
    {
        return q * cfg_.ringSize + slot;
    }

    /** Queue owning global descriptor index @p i. */
    std::size_t queueOf(std::size_t i) const { return i / cfg_.ringSize; }

    /** Ring slot of global descriptor index @p i. */
    std::size_t slotOf(std::size_t i) const { return i % cfg_.ringSize; }

    /** Queue @p q's descriptor ring (queue 0 by default). */
    const RxRing &ring(std::size_t q = 0) const
    {
        return queues_[q]->ring();
    }

    /** Physical buffer address backing descriptor @p i of queue @p q. */
    Addr bufferAddr(std::size_t i, std::size_t q = 0) const
    {
        return queues_[q]->ring().desc(i).bufferAddr();
    }

    /** Physical page base backing descriptor @p i of queue @p q. */
    Addr pageBase(std::size_t i, std::size_t q = 0) const
    {
        return queues_[q]->ring().desc(i).pageBase;
    }

    /**
     * Ground truth for Table I scoring: the global page-aligned cache
     * set of each descriptor's page, queue-major (queue 0 slot 0 ..
     * queue 0 slot N-1, queue 1 slot 0, ...).
     */
    std::vector<std::size_t> groundTruthSets() const;

    /** Per-queue ground truth: set of each of queue @p q's slots. */
    std::vector<std::size_t> queueGroundTruthSets(std::size_t q) const;

    /**
     * Aggregate receive statistics summed over all queues (identical
     * to queue 0's counters in single-queue configurations).
     */
    IgbStats stats() const;

    /** Queue @p q's own statistics. */
    const IgbStats &queueStats(std::size_t q) const
    {
        return queues_[q]->stats();
    }

    const IgbConfig &config() const { return cfg_; }

    /** The active software ring defense of queue @p q (default 0). */
    const BufferPolicy &policy(std::size_t q = 0) const
    {
        return queues_[q]->policy();
    }

    /**
     * Attach a recycle-telemetry probe spanning every queue (nullptr
     * detaches). Detached (the default), the receive path does no
     * telemetry work. Not owned; must outlive the driver or be
     * detached first.
     */
    void attachTelemetry(RxTelemetry *probe) { telem_ = probe; }

    /** The attached telemetry probe, or nullptr. */
    RxTelemetry *telemetry() const { return telem_; }

  private:
    friend class RxQueue;

    IgbConfig cfg_;
    mem::PhysMem &phys_;
    cache::Hierarchy &hier_;
    RssSteering rss_;
    std::vector<std::unique_ptr<RxQueue>> queues_;
    RxTelemetry *telem_ = nullptr; ///< Counter probe; null = off-path.

    /** Small reused pool of skb pages for copy-break destinations,
     *  shared across queues like the kernel's skb allocator. */
    std::vector<Addr> skbPages_;
    std::size_t nextSkb_ = 0;

    /** Driver-side processing of a filled descriptor of @p q. */
    void processRx(RxQueue &q, std::size_t desc_index,
                   const Frame &frame, Cycles now);
};

} // namespace pktchase::nic

#endif // PKTCHASE_NIC_IGB_DRIVER_HH
