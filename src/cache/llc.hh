/**
 * @file
 * Sliced, inclusive last-level cache whose DMA behaviour is delegated
 * to a pluggable InjectionPolicy (see injection_policy.hh).
 *
 * Three fill paths exist:
 *  - CPU reads/writes: demand fills that may displace any line (or,
 *    under a partitioned policy such as the Sec. VII defense, only CPU
 *    lines).
 *  - DDIO I/O writes: the NIC's DMA transactions allocate directly in
 *    the LLC in dirty state, capped at the policy's per-set I/O bound
 *    (ddioWays for the baseline), but still able to evict CPU lines in
 *    the baseline -- the contention the whole attack rests on.
 *  - Non-DDIO DMA: writes go to memory and invalidate any cached copy;
 *    the driver's later header read demand-fetches.
 *
 * Under AdaptivePartitionPolicy an I/O fill can never evict a CPU line
 * (tested as an invariant), which closes the channel.
 */

#ifndef PKTCHASE_CACHE_LLC_HH
#define PKTCHASE_CACHE_LLC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/geometry.hh"
#include "cache/injection_policy.hh"
#include "cache/replacement.hh"
#include "cache/slice_hash.hh"
#include "cache/telemetry.hh"
#include "sim/types.hh"

namespace pktchase::cache
{

/** Configuration for an Llc instance. */
struct LlcConfig
{
    Geometry geom = Geometry::xeonE52660();

    /** Max ways DDIO may allocate per set (Intel's ~10% guidance). */
    unsigned ddioWays = 2;

    // Tuning parameters for AdaptivePartitionPolicy (ignored by the
    // static policies).
    unsigned ioLinesMin = 1;     ///< Hard lower bound on partition size.
    unsigned ioLinesMax = 3;     ///< Hard upper bound on partition size.
    unsigned ioLinesInit = 2;    ///< Partition size at reset.
    Cycles adaptPeriod = 10000;  ///< p in the paper.
    Cycles tHigh = 5000;         ///< Grow threshold (cycles of presence).
    Cycles tLow = 2000;          ///< Shrink threshold.
};

/** Event counters exposed by the Llc. */
struct LlcStats
{
    std::uint64_t cpuReads = 0;
    std::uint64_t cpuReadMisses = 0;
    std::uint64_t cpuWrites = 0;
    std::uint64_t cpuWriteMisses = 0;

    std::uint64_t ioWrites = 0;       ///< DDIO write transactions.
    std::uint64_t ioWriteHits = 0;    ///< Updated an existing line.
    std::uint64_t ioAllocations = 0;  ///< Allocated a new line.

    /** Evictions broken down by (evicted line kind) x (filling agent). */
    std::uint64_t cpuEvictedByCpu = 0;
    std::uint64_t cpuEvictedByIo = 0; ///< The Packet Chasing leak.
    std::uint64_t ioEvictedByCpu = 0;
    std::uint64_t ioEvictedByIo = 0;

    std::uint64_t writebacks = 0;     ///< Dirty evictions to memory.
    std::uint64_t memReads = 0;       ///< Demand fills from memory.
    std::uint64_t invalidations = 0;  ///< Snoop/DMA invalidations.

    std::uint64_t partitionAdaptations = 0;
    std::uint64_t partitionInvalidations = 0;
};

/**
 * The sliced last-level cache.
 */
class Llc
{
  public:
    /**
     * @param cfg    Geometry and policy configuration.
     * @param hash   Slice selector; its slice count must match the
     *               geometry. Owned by the cache.
     * @param policy DMA injection policy; nullptr means the DDIO
     *               baseline (DdioPolicy). Owned by the cache.
     */
    Llc(const LlcConfig &cfg, std::unique_ptr<SliceHash> hash,
        std::unique_ptr<InjectionPolicy> policy = nullptr);

    /**
     * CPU demand read of the block containing @p paddr.
     * @return true on hit.
     */
    bool cpuRead(Addr paddr, Cycles now);

    /** CPU write (write-allocate, write-back). @return true on hit. */
    bool cpuWrite(Addr paddr, Cycles now);

    /**
     * DDIO I/O write of the block containing @p paddr: update in place
     * on hit, otherwise allocate dirty, displacing per the injection
     * policy's per-set cap and partition rules.
     */
    void ioWrite(Addr paddr, Cycles now);

    /**
     * Invalidate the block containing @p paddr if cached (non-DDIO DMA
     * snoop). The cached copy is stale, so no writeback is performed.
     */
    void invalidateBlock(Addr paddr);

    /** Whether the block containing @p paddr is currently cached. */
    bool contains(Addr paddr) const;

    /** Whether the cached copy of @p paddr (if any) is an I/O line. */
    bool containsIoLine(Addr paddr) const;

    /** Flush the whole cache (writebacks counted). */
    void flushAll();

    /** Global set index (slice-major) of a physical address. */
    std::size_t
    globalSet(Addr paddr) const
    {
        // Devirtualized fast path for the standard XOR-fold hash;
        // xorHash_ is set iff hash_ is an XorFoldSliceHash.
        const unsigned slice = xorHash_
            ? xorHash_->slice(paddr) : hash_->slice(paddr);
        return static_cast<std::size_t>(slice) *
            cfg_.geom.setsPerSlice + cfg_.geom.setIndex(paddr);
    }

    /** Number of valid lines in global set @p gset. */
    unsigned validCount(std::size_t gset) const;

    /** Number of valid I/O lines in global set @p gset. */
    unsigned ioCount(std::size_t gset) const { return ioCount_[gset]; }

    /**
     * Current I/O partition size for @p gset: the injection policy's
     * per-set cap (ddioWays for the static DDIO variants).
     */
    unsigned ioPartitionSize(std::size_t gset) const;

    const LlcStats &stats() const { return stats_; }
    const LlcConfig &config() const { return cfg_; }
    const Geometry &geometry() const { return cfg_.geom; }
    const SliceHash &sliceHash() const { return *hash_; }

    /** The active DMA injection policy. */
    const InjectionPolicy &injectionPolicy() const { return *policy_; }

    /** Reset all statistics counters (cache contents untouched). */
    void clearStats() { stats_ = LlcStats{}; }

    /**
     * Attach a hardware-counter telemetry probe (nullptr detaches).
     * With no probe attached the access paths do no telemetry work at
     * all, so detached behaviour is bit-identical to the pre-telemetry
     * model. Not owned; must outlive the cache or be detached first.
     */
    void attachTelemetry(LlcTelemetry *probe) { telem_ = probe; }

    /** The attached telemetry probe, or nullptr. */
    LlcTelemetry *telemetry() const { return telem_; }

    // ------------------------------------------------------------------
    // Injection-policy mutation surface: policies rearrange set
    // contents only through these, so the writeback and partition
    // statistics stay consistent.
    // ------------------------------------------------------------------

    /**
     * Invalidate the replacement victim among @p gset's lines of the
     * given kind (writeback accounted, counted as a partition
     * invalidation). At least one line of that kind must be valid.
     */
    void partitionDrop(std::size_t gset, bool io_side);

    /** Count one adaptation-period boundary decision. */
    void notePartitionAdaptation() { ++stats_.partitionAdaptations; }

  private:
    // Line state is split structure-of-arrays. tags_ holds each line's
    // 32-bit Geometry::tag() -- every block of a set shares its set
    // index, so the tag alone names the block -- and kInvalidTag marks
    // an invalid line, the only validity flag. meta_ holds one byte of
    // flag bits per line, zero for an invalid line. Both pad each
    // set's stride to a multiple of 4 ways so findWay compares tags
    // four at a time; a 20-way set's tags fit in 80 bytes. ioCount_
    // counts each set's valid I/O lines and is updated wherever a
    // line's validity or I/O flag changes.
    static constexpr std::uint32_t kInvalidTag = ~std::uint32_t(0);
    static constexpr std::uint8_t kDirty = 1u << 0;
    static constexpr std::uint8_t kIo = 1u << 1;

    LlcConfig cfg_;
    std::unique_ptr<SliceHash> hash_;
    const XorFoldSliceHash *xorHash_ = nullptr; ///< hash_ downcast, or null.
    std::unique_ptr<InjectionPolicy> policy_;
    bool partitioned_ = false;     ///< Cached policy_->partitioned().
    bool wantsOnAccess_ = false;   ///< Cached policy_->wantsOnAccess().
    unsigned uniformIoCap_ = 0;    ///< Cached cap when ioCapUniform().
    bool ioCapUniform_ = true;
    LruPolicy lru_;                ///< Replacement state of every set.
    unsigned stride_ = 0;          ///< ways rounded up to a multiple of 4.
    unsigned tagShift_ = 0;        ///< blockShift + set-index bits.
    std::vector<std::uint32_t> tags_; ///< totalSets x stride_ tags.
    std::vector<std::uint8_t> meta_;  ///< totalSets x stride_ flag bytes.
    std::vector<std::uint8_t> ioCount_; ///< Valid I/O lines per set.
    LlcStats stats_;
    LlcTelemetry *telem_ = nullptr; ///< Counter probe; null = off-path.

    std::size_t
    lineIndex(std::size_t gset, unsigned way) const
    {
        return gset * stride_ + way;
    }

    /** Geometry::tag() of @p paddr; panics if it reaches kInvalidTag. */
    std::uint32_t
    tagOf(Addr paddr) const
    {
        const Addr tag = paddr >> tagShift_;
        if (tag >= kInvalidTag)
            panicTagOverflow(paddr);
        return static_cast<std::uint32_t>(tag);
    }

    [[noreturn]] static void panicTagOverflow(Addr paddr);

    /** Per-set I/O cap without the virtual call for uniform policies. */
    unsigned
    ioCapOf(std::size_t gset) const
    {
        return ioCapUniform_ ? uniformIoCap_ : policy_->ioCap(gset);
    }

    /**
     * First way of @p gset's padded stride holding @p tag, or -1.
     * With kInvalidTag this finds the first invalid way, padding
     * included. Defined here so every access path inlines it.
     */
    int
    findWay(std::size_t gset, std::uint32_t tag) const
    {
        // One group of four per step, returning at the first group
        // with a match: a valid tag occurs at most once per set, and
        // the scan stays branch-free inside a group.
        const std::uint32_t *tags = &tags_[gset * stride_];
        for (unsigned w = 0; w < stride_; w += 4) {
            const unsigned hits = unsigned(tags[w] == tag) |
                unsigned(tags[w + 1] == tag) << 1 |
                unsigned(tags[w + 2] == tag) << 2 |
                unsigned(tags[w + 3] == tag) << 3;
            if (hits)
                return static_cast<int>(w + __builtin_ctz(hits));
        }
        return -1;
    }

    /** First invalid way in @p gset, or -1. */
    int findInvalid(std::size_t gset) const;

    /** Invalidate @p way of @p gset: no writeback or eviction stats. */
    void dropLine(std::size_t gset, unsigned way);

    /** Mask of valid ways whose isIo flag equals @p want_io. */
    WayMask kindMask(std::size_t gset, bool want_io) const;

    /** Evict @p way of @p gset, counting writeback and attribution. */
    void evict(std::size_t gset, unsigned way, bool filler_is_io);

    /** Handle a CPU-side miss fill; returns the way filled. */
    unsigned cpuFill(std::size_t gset, std::uint32_t tag, bool dirty);

    /**
     * The shared cpuRead/cpuWrite miss tail: fill, then report the
     * miss -- and any I/O line the fill displaced -- to telemetry.
     */
    void cpuMissFill(std::size_t gset, std::uint32_t tag, bool dirty,
                     Cycles now);

    /** Handle a DDIO allocation. */
    void ioFill(std::size_t gset, std::uint32_t tag);
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_LLC_HH
