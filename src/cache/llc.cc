#include "llc.hh"

#include <cstdio>
#include <string>

#include "obs/stats.hh"
#include "sim/logging.hh"

namespace pktchase::cache
{

Llc::Llc(const LlcConfig &cfg, std::unique_ptr<SliceHash> hash,
         std::unique_ptr<InjectionPolicy> policy)
    : cfg_(cfg), hash_(std::move(hash)),
      policy_(policy ? std::move(policy)
                     : std::make_unique<DdioPolicy>()),
      lru_(cfg.geom.totalSets(), cfg.geom.ways)
{
    if (!hash_)
        fatal("Llc requires a slice hash");
    if (hash_->slices() != cfg_.geom.slices)
        fatal("Llc: slice hash width does not match geometry");
    if (cfg_.geom.ways > 32)
        fatal("Llc: way masks support at most 32 ways");
    if (cfg_.ddioWays == 0 || cfg_.ddioWays > cfg_.geom.ways)
        fatal("Llc: ddioWays out of range");
    const unsigned sps = cfg_.geom.setsPerSlice;
    if (sps == 0 || (sps & (sps - 1)) != 0)
        fatal("Llc: setsPerSlice must be a power of two");

    stride_ = (cfg_.geom.ways + 3) & ~3u;
    tagShift_ = blockShift + static_cast<unsigned>(__builtin_ctz(sps));
    const std::size_t sets = cfg_.geom.totalSets();
    tags_.assign(sets * stride_, kInvalidTag);
    meta_.assign(sets * stride_, 0);
    ioCount_.assign(sets, 0);
    policy_->init(*this);
    partitioned_ = policy_->partitioned();
    wantsOnAccess_ = policy_->wantsOnAccess();
    ioCapUniform_ = policy_->ioCapUniform();
    if (ioCapUniform_)
        uniformIoCap_ = policy_->ioCap(0);

    // Concrete-type fast path for the default slice hash.
    xorHash_ = dynamic_cast<const XorFoldSliceHash *>(hash_.get());
}

void
Llc::panicTagOverflow(Addr paddr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%#llx",
                  static_cast<unsigned long long>(paddr));
    panic(std::string("Llc: physical address ") + buf +
          " has a tag that reaches the invalid-line sentinel");
}

int
Llc::findInvalid(std::size_t gset) const
{
    // Padding ways hold kInvalidTag, so a hit there means none of the
    // real ways is free.
    const int way = findWay(gset, kInvalidTag);
    return way < static_cast<int>(cfg_.geom.ways) ? way : -1;
}

WayMask
Llc::kindMask(std::size_t gset, bool want_io) const
{
    const std::size_t base = gset * stride_;
    const std::uint32_t *tags = &tags_[base];
    const std::uint8_t *meta = &meta_[base];
    const std::uint8_t want = want_io ? kIo : 0;
    WayMask mask = 0;
    for (unsigned w = 0; w < cfg_.geom.ways; ++w) {
        if (tags[w] != kInvalidTag && (meta[w] & kIo) == want)
            mask |= WayMask(1) << w;
    }
    return mask;
}

unsigned
Llc::validCount(std::size_t gset) const
{
    const std::uint32_t *tags = &tags_[gset * stride_];
    unsigned n = 0;
    for (unsigned w = 0; w < cfg_.geom.ways; ++w)
        if (tags[w] != kInvalidTag)
            ++n;
    return n;
}

unsigned
Llc::ioPartitionSize(std::size_t gset) const
{
    return policy_->ioCap(gset);
}

void
Llc::dropLine(std::size_t gset, unsigned way)
{
    const std::size_t idx = lineIndex(gset, way);
    if (meta_[idx] & kIo)
        --ioCount_[gset];
    tags_[idx] = kInvalidTag;
    meta_[idx] = 0;
    lru_.reset(gset, way);
}

void
Llc::evict(std::size_t gset, unsigned way, bool filler_is_io)
{
    const std::size_t idx = lineIndex(gset, way);
    if (tags_[idx] == kInvalidTag)
        panic("Llc::evict of invalid way");
    const std::uint8_t m = meta_[idx];
    if (m & kDirty)
        ++stats_.writebacks;
    if (m & kIo) {
        if (filler_is_io)
            ++stats_.ioEvictedByIo;
        else
            ++stats_.ioEvictedByCpu;
    } else {
        if (filler_is_io)
            ++stats_.cpuEvictedByIo;
        else
            ++stats_.cpuEvictedByCpu;
    }
    dropLine(gset, way);
}

void
Llc::partitionDrop(std::size_t gset, bool io_side)
{
    const WayMask mask = kindMask(gset, io_side);
    if (mask == 0)
        panic("Llc::partitionDrop: no line of the requested kind");
    const unsigned w = lru_.victim(gset, mask);
    if (meta_[lineIndex(gset, w)] & kDirty)
        ++stats_.writebacks;
    dropLine(gset, w);
    ++stats_.partitionInvalidations;
}

unsigned
Llc::cpuFill(std::size_t gset, std::uint32_t tag, bool dirty)
{
    ++stats_.memReads;
    int way = -1;

    if (partitioned_) {
        const unsigned cpu_quota =
            cfg_.geom.ways - policy_->ioCap(gset);
        const WayMask cpu_mask = kindMask(gset, false);
        const auto cpu_count =
            static_cast<unsigned>(popcount64(cpu_mask));
        if (cpu_count >= cpu_quota) {
            // Partition full: displace another CPU line, never I/O.
            way = static_cast<int>(lru_.victim(gset, cpu_mask));
            evict(gset, static_cast<unsigned>(way), false);
        } else {
            way = findInvalid(gset);
            if (way < 0) {
                // All ways valid yet CPU under quota: the I/O side is
                // over its bound (cannot happen if enforcement ran).
                panic("Llc::cpuFill: partition accounting broken");
            }
        }
    } else {
        way = findInvalid(gset);
        if (way < 0) {
            const WayMask all =
                (cfg_.geom.ways >= 32) ? ~WayMask(0)
                : ((WayMask(1) << cfg_.geom.ways) - 1);
            way = static_cast<int>(lru_.victim(gset, all));
            evict(gset, static_cast<unsigned>(way), false);
        }
    }

    const std::size_t idx = lineIndex(gset, static_cast<unsigned>(way));
    tags_[idx] = tag;
    meta_[idx] = dirty ? kDirty : 0;
    lru_.touch(gset, static_cast<unsigned>(way));
    return static_cast<unsigned>(way);
}

void
Llc::ioFill(std::size_t gset, std::uint32_t tag)
{
    ++stats_.ioAllocations;
    obs::bump(obs::Stat::LlcMisses);

    int way = -1;
    if (ioCount_[gset] >= ioCapOf(gset)) {
        // DDIO cap (or partition bound) reached: recycle an I/O line.
        way = static_cast<int>(lru_.victim(gset, kindMask(gset, true)));
        evict(gset, static_cast<unsigned>(way), true);
    } else if (partitioned_) {
        // Defense: the partition guarantees a free slot for I/O.
        way = findInvalid(gset);
        if (way < 0)
            panic("Llc::ioFill: partition accounting broken");
    } else {
        // Baseline DDIO: take an invalid way if available, otherwise
        // displace whatever the policy picks -- including CPU lines.
        // This is the eviction the spy observes.
        way = findInvalid(gset);
        if (way < 0) {
            const WayMask all =
                (cfg_.geom.ways >= 32) ? ~WayMask(0)
                : ((WayMask(1) << cfg_.geom.ways) - 1);
            way = static_cast<int>(lru_.victim(gset, all));
            evict(gset, static_cast<unsigned>(way), true);
        }
    }

    const std::size_t idx = lineIndex(gset, static_cast<unsigned>(way));
    tags_[idx] = tag;
    // DDIO lines are written back only on eviction.
    meta_[idx] = kDirty | kIo;
    ++ioCount_[gset];
    lru_.touch(gset, static_cast<unsigned>(way));
}

void
Llc::cpuMissFill(std::size_t gset, std::uint32_t tag, bool dirty,
                 Cycles now)
{
    obs::bump(obs::Stat::LlcMisses);
    const std::uint64_t conflicts0 = stats_.ioEvictedByCpu;
    cpuFill(gset, tag, dirty);
    if (telem_) {
        telem_->cpuAccess(false, now);
        if (stats_.ioEvictedByCpu != conflicts0)
            telem_->ioLineConflict(now);
    }
}

bool
Llc::cpuRead(Addr paddr, Cycles now)
{
    ++stats_.cpuReads;
    obs::bump(obs::Stat::LlcAccesses);
    const std::uint32_t tag = tagOf(paddr);
    const std::size_t gset = globalSet(paddr);
    if (wantsOnAccess_)
        policy_->onAccess(*this, gset, now);

    const int way = findWay(gset, tag);
    if (way >= 0) {
        lru_.touch(gset, static_cast<unsigned>(way));
        if (telem_)
            telem_->cpuAccess(true, now);
        return true;
    }
    ++stats_.cpuReadMisses;
    cpuMissFill(gset, tag, false, now);
    return false;
}

bool
Llc::cpuWrite(Addr paddr, Cycles now)
{
    ++stats_.cpuWrites;
    obs::bump(obs::Stat::LlcAccesses);
    const std::uint32_t tag = tagOf(paddr);
    const std::size_t gset = globalSet(paddr);
    if (wantsOnAccess_)
        policy_->onAccess(*this, gset, now);

    const int way = findWay(gset, tag);
    if (way >= 0) {
        std::uint8_t &m = meta_[lineIndex(gset,
                                          static_cast<unsigned>(way))];
        if ((m & kIo) && partitioned_) {
            // Defense: ownership may not silently flip -- that would
            // leave the CPU side over quota and the I/O side under-
            // counted. Move the line across the boundary properly:
            // drop the I/O copy and refill as a CPU line (with a CPU-
            // partition eviction if the quota is full).
            if (m & kDirty)
                ++stats_.writebacks;
            dropLine(gset, static_cast<unsigned>(way));
            ++stats_.invalidations;
            cpuFill(gset, tag, true);
            --stats_.memReads; // on-chip move, not a demand fill
            if (telem_)
                telem_->cpuAccess(true, now);
            return true;
        }
        // A CPU write to a DDIO line takes ownership (the driver copied
        // or consumed the packet); it is no longer an I/O line.
        if (m & kIo)
            --ioCount_[gset];
        m = kDirty;
        lru_.touch(gset, static_cast<unsigned>(way));
        if (telem_)
            telem_->cpuAccess(true, now);
        return true;
    }
    ++stats_.cpuWriteMisses;
    cpuMissFill(gset, tag, true, now);
    return false;
}

void
Llc::ioWrite(Addr paddr, Cycles now)
{
    ++stats_.ioWrites;
    obs::bump(obs::Stat::LlcAccesses);
    const std::uint32_t tag = tagOf(paddr);
    const std::size_t gset = globalSet(paddr);
    if (wantsOnAccess_)
        policy_->onAccess(*this, gset, now);

    const std::uint64_t allocs0 = stats_.ioAllocations;

    const int way = findWay(gset, tag);
    if (way >= 0) {
        std::uint8_t &m = meta_[lineIndex(gset,
                                          static_cast<unsigned>(way))];
        if (!(m & kIo) && partitioned_) {
            // Defense: DMA may not silently convert a CPU line into an
            // I/O line (that would grow the I/O side past its bound).
            // Invalidate the stale copy and allocate in the partition.
            ++stats_.invalidations;
            dropLine(gset, static_cast<unsigned>(way));
            ioFill(gset, tag);
        } else {
            ++stats_.ioWriteHits;
            if (!(m & kIo))
                ++ioCount_[gset];
            m = kDirty | kIo;
            lru_.touch(gset, static_cast<unsigned>(way));
        }
        if (telem_ && stats_.ioAllocations != allocs0)
            telem_->ioInjection(now);
        return;
    }
    ioFill(gset, tag);
    if (telem_)
        telem_->ioInjection(now);
}

void
Llc::invalidateBlock(Addr paddr)
{
    const std::size_t gset = globalSet(paddr);
    const int way = findWay(gset, tagOf(paddr));
    if (way < 0)
        return;
    // The DMA engine just overwrote memory; the cached copy is stale,
    // so it is dropped without writeback.
    dropLine(gset, static_cast<unsigned>(way));
    ++stats_.invalidations;
}

bool
Llc::contains(Addr paddr) const
{
    return findWay(globalSet(paddr), tagOf(paddr)) >= 0;
}

bool
Llc::containsIoLine(Addr paddr) const
{
    const std::size_t gset = globalSet(paddr);
    const int way = findWay(gset, tagOf(paddr));
    return way >= 0 &&
        (meta_[lineIndex(gset, static_cast<unsigned>(way))] & kIo) != 0;
}

void
Llc::flushAll()
{
    for (std::size_t gset = 0; gset < cfg_.geom.totalSets(); ++gset) {
        for (unsigned w = 0; w < cfg_.geom.ways; ++w) {
            if (meta_[lineIndex(gset, w)] & kDirty)
                ++stats_.writebacks;
            dropLine(gset, w);
        }
    }
}

} // namespace pktchase::cache
