/**
 * @file
 * Pluggable software ring-buffer defenses (Sec. VI) as a strategy
 * interface over the IGB driver's buffer-recycling path.
 *
 * The driver no longer branches on a defense enum; instead each
 * receive queue calls the hooks of its own BufferPolicy instance at
 * fixed points of the receive path (one instance per RxQueue -- a
 * policy's state is queue-local):
 *
 *  - onInit(q)        once, after the queue's pages are allocated and
 *                     before the first packet;
 *  - onPacket(q, n)   at the top of receive(), before the NIC DMA,
 *                     where n is the number of frames this queue has
 *                     received so far (0 for the first packet);
 *  - onRecycle(q, i)  after the driver finished processing the
 *                     queue's descriptor i (copy-break reuse or page
 *                     flip already applied), when the buffer is
 *                     recycled back into the ring;
 *  - onTeardown(q)    in the driver's destructor, before the ring
 *                     pages are freed -- release policy-owned frames
 *                     here.
 *
 * Policies mutate the ring only through the queue's policy surface
 * (reallocBuffer, randomizeRing, swapPage, setPageOffset), which keeps
 * the reallocation statistics -- and therefore the server model's
 * defense cost accounting -- consistent across policies.
 *
 * Canonical spec strings ("ring.partial:1000") are produced by name()
 * and parsed by defense::parseSpec(); see src/defense/README.md for
 * how a policy joins the built-in table.
 */

#ifndef PKTCHASE_NIC_BUFFER_POLICY_HH
#define PKTCHASE_NIC_BUFFER_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace pktchase::nic
{

class RxQueue;

/** Strategy interface for the software ring defenses. */
class BufferPolicy
{
  public:
    /**
     * Static dispatch hints for the receive path: the driver skips the
     * dispatch of a hook marked a no-op. It caches these per queue
     * when the policy is installed, so they must describe the
     * *instance for its whole lifetime* — a policy whose hook
     * behaviour can change mid-run (e.g. a detector-gated wrapper
     * arming) must report the conservative (all-false) default.
     */
    struct HookTraits
    {
        /** onPacket does nothing: skip dispatch entirely. */
        bool packetNoop = false;
        /** onRecycle does nothing: skip dispatch entirely. */
        bool recycleNoop = false;
    };

    virtual ~BufferPolicy() = default;

    /** Canonical registry spec of this instance, e.g. "ring.partial:1000". */
    virtual std::string name() const = 0;

    /** Dispatch hints; see HookTraits. Must be constant per instance. */
    virtual HookTraits hookTraits() const { return {}; }

    virtual void onInit(RxQueue &) {}
    virtual void onPacket(RxQueue &, std::uint64_t) {}
    virtual void onRecycle(RxQueue &, std::size_t) {}
    virtual void onTeardown(RxQueue &) {}
};

/** Vulnerable baseline: buffers recycle in place forever. */
class NonePolicy : public BufferPolicy
{
  public:
    std::string name() const override { return "ring.none"; }

    /** The no-defense fast path: every hook is skippable. */
    HookTraits
    hookTraits() const override
    {
        return {true, true};
    }
};

/** Sec. VI full randomization: a fresh random buffer for every packet. */
class FullRandomPolicy : public BufferPolicy
{
  public:
    std::string name() const override { return "ring.full"; }

    HookTraits
    hookTraits() const override
    {
        return {true, false};
    }

    void onRecycle(RxQueue &q, std::size_t i) override;
};

/** Sec. VI partial randomization: reshuffle the whole ring every N packets. */
class PartialPeriodicPolicy : public BufferPolicy
{
  public:
    /** Single source of truth for the paper's default interval. */
    static constexpr std::uint64_t kDefaultInterval = 1000;

    explicit PartialPeriodicPolicy(std::uint64_t interval = kDefaultInterval);

    std::string name() const override;

    // Keeps the all-false HookTraits default: onPacket reshuffles the
    // ring, so its dispatch cannot be skipped.

    void onPacket(RxQueue &q, std::uint64_t n) override;

    std::uint64_t interval() const { return interval_; }

  private:
    std::uint64_t interval_;
};

/**
 * Intra-page random offset: on every recycle the descriptor's buffer
 * is moved to a random half of its page, replacing the deterministic
 * page_offset ^= 2048 alternation the attack's sequencer tracks. No
 * allocator traffic at all -- the cheapest mitigation in the family,
 * and one the enum design could not express (it is neither "realloc
 * everything" nor "realloc nothing").
 */
class RandomOffsetPolicy : public BufferPolicy
{
  public:
    std::string name() const override { return "ring.offset"; }

    HookTraits
    hookTraits() const override
    {
        return {true, false};
    }

    void onInit(RxQueue &q) override;
    void onRecycle(RxQueue &q, std::size_t i) override;

  private:
    Rng rng_{0};
};

/**
 * Delayed-recycle quarantine: a FIFO pool of spare pages sits between
 * use and reuse. On recycle the just-used page enters the pool's tail
 * and the descriptor receives the page that has been quarantined the
 * longest, so a page the attacker just observed is guaranteed not to
 * back the next fill of any descriptor until depth other recycles have
 * passed. Cheaper than full randomization (a pool rotation, not an
 * allocator round-trip), stronger than periodic reshuffling between
 * reshuffles.
 */
class QuarantinePolicy : public BufferPolicy
{
  public:
    static constexpr std::uint64_t kDefaultDepth = 16;

    explicit QuarantinePolicy(std::uint64_t depth = kDefaultDepth);

    std::string name() const override;

    HookTraits
    hookTraits() const override
    {
        return {true, false};
    }

    void onInit(RxQueue &q) override;
    void onRecycle(RxQueue &q, std::size_t i) override;
    void onTeardown(RxQueue &q) override;

    std::uint64_t depth() const { return depth_; }

  private:
    std::uint64_t depth_;
    std::deque<Addr> pool_;
};

} // namespace pktchase::nic

#endif // PKTCHASE_NIC_BUFFER_POLICY_HH
