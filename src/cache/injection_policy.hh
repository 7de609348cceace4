/**
 * @file
 * Pluggable DMA injection policies for the LLC: how (and whether) NIC
 * and disk DMA traffic allocates in the cache, and how I/O lines are
 * bounded per set.
 *
 * Replaces the old `bool ddio` on the hierarchy plus the
 * `adaptivePartition` flag in LlcConfig with one strategy object the
 * Llc consults at fixed points:
 *
 *  - injectsToLlc()     whether DMA writes allocate in the LLC at all
 *                       (false models memory-first DMA + snoop
 *                       invalidate);
 *  - partitioned()      whether CPU and I/O lines are strictly
 *                       separated (an I/O fill may then never displace
 *                       a CPU line, and vice versa within quota);
 *  - ioCap(gset)        the maximum number of I/O lines currently
 *                       allowed in a set -- constant for the DDIO
 *                       variants, per-set dynamic for the adaptive
 *                       partition;
 *  - onAccess(...)      bookkeeping hook, called at the start of every
 *                       CPU/I/O access before the tag lookup;
 *  - init(llc)          bind-time validation and per-set state sizing.
 *
 * Policies mutate set contents only through Llc::partitionDrop so the
 * writeback and partition-invalidation statistics stay consistent.
 * Canonical spec strings ("cache.ddio-ways:2") are produced by name()
 * and parsed by defense::parseSpec() (defense/registry.hh).
 */

#ifndef PKTCHASE_CACHE_INJECTION_POLICY_HH
#define PKTCHASE_CACHE_INJECTION_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace pktchase::cache
{

class Llc;

/** Strategy interface for DMA injection into the LLC. */
class InjectionPolicy
{
  public:
    virtual ~InjectionPolicy() = default;

    /** Canonical registry spec of this instance, e.g. "cache.adaptive". */
    virtual std::string name() const = 0;

    /** Whether DMA writes inject into the LLC (DDIO). */
    virtual bool injectsToLlc() const = 0;

    /** Whether CPU and I/O lines are strictly partitioned. */
    virtual bool partitioned() const { return false; }

    /** Bind to @p llc: validate configuration, size per-set state. */
    virtual void init(Llc &) {}

    /** Max I/O lines currently allowed in global set @p gset. */
    virtual unsigned ioCap(std::size_t gset) const = 0;

    /**
     * Whether ioCap is the same for every set (and constant after
     * init). The Llc caches a uniform cap once instead of making a
     * virtual call per fill.
     */
    virtual bool ioCapUniform() const { return true; }

    /** Per-access bookkeeping hook, before the tag lookup. */
    virtual void onAccess(Llc &, std::size_t, Cycles) {}

    /**
     * Whether onAccess is overridden to do real work. The Llc skips
     * the per-access virtual dispatch entirely when this is false.
     */
    virtual bool wantsOnAccess() const { return false; }
};

/**
 * Memory-first DMA: writes go to DRAM and snoop-invalidate cached
 * copies; the driver's later reads demand-fetch. The cache itself
 * behaves exactly like the DDIO baseline if fed I/O fills directly.
 */
class NoDdioPolicy : public InjectionPolicy
{
  public:
    std::string name() const override { return "cache.no-ddio"; }
    bool injectsToLlc() const override { return false; }
    void init(Llc &llc) override;
    unsigned ioCap(std::size_t) const override { return cap_; }

  private:
    unsigned cap_ = 2;
};

/** Vulnerable baseline: DDIO with the configured per-set way cap. */
class DdioPolicy : public InjectionPolicy
{
  public:
    std::string name() const override { return "cache.ddio"; }
    bool injectsToLlc() const override { return true; }
    void init(Llc &llc) override;
    unsigned ioCap(std::size_t) const override { return cap_; }

  private:
    unsigned cap_ = 2;
};

/**
 * DDIO restricted to exactly @p ways allocation ways per set,
 * overriding LlcConfig::ddioWays -- models real DDIO's fixed 2-way
 * allocation limit (and lets experiments sweep it).
 */
class DdioWaysPolicy : public InjectionPolicy
{
  public:
    /** Fatal when @p ways is zero or does not fit an unsigned. */
    explicit DdioWaysPolicy(std::uint64_t ways);

    std::string name() const override;
    bool injectsToLlc() const override { return true; }
    void init(Llc &llc) override;
    unsigned ioCap(std::size_t) const override { return ways_; }

  private:
    unsigned ways_;
};

/**
 * The Sec. VII adaptive I/O partitioning defense: a per-set I/O
 * partition size (io_lines) plus a per-set I/O-presence cycle counter;
 * every adaptation period the partition grows if presence exceeded
 * tHigh and shrinks if it stayed below tLow, invalidating displaced
 * blocks. With this policy an I/O fill can never evict a CPU line,
 * which closes the channel.
 */
class AdaptivePartitionPolicy : public InjectionPolicy
{
  public:
    std::string name() const override { return "cache.adaptive"; }
    bool injectsToLlc() const override { return true; }
    bool partitioned() const override { return true; }
    void init(Llc &llc) override;
    unsigned ioCap(std::size_t gset) const override;
    bool ioCapUniform() const override { return false; }
    void onAccess(Llc &llc, std::size_t gset, Cycles now) override;
    bool wantsOnAccess() const override { return true; }

  private:
    /** Adaptive bookkeeping, one per set. */
    struct PartState
    {
        std::uint8_t ioLines;
        Cycles periodStart = 0;
        Cycles lastUpdate = 0;
        Cycles presentAcc = 0;
    };

    // Tuning parameters, copied from LlcConfig at init().
    unsigned ways_ = 0;
    unsigned ioLinesMin_ = 1;
    unsigned ioLinesMax_ = 3;
    Cycles adaptPeriod_ = 0;
    Cycles tHigh_ = 0;
    Cycles tLow_ = 0;

    std::vector<PartState> part_;

    /** Apply one adaptation-period boundary decision to @p gset. */
    void adapt(Llc &llc, std::size_t gset);

    /** Enforce partition bounds after io_lines changed. */
    void enforce(Llc &llc, std::size_t gset);
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_INJECTION_POLICY_HH
