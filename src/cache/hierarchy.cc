#include "hierarchy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pktchase::cache
{

Hierarchy::Hierarchy(const LlcConfig &llc_cfg, const HierarchyConfig &cfg,
                     std::unique_ptr<SliceHash> hash,
                     std::unique_ptr<InjectionPolicy> policy)
    : cfg_(cfg),
      llc_(std::make_unique<Llc>(llc_cfg, std::move(hash),
                                 std::move(policy))),
      rng_(cfg.seed)
{
}

Cycles
Hierarchy::timedRead(Addr paddr, Cycles now)
{
    const bool hit = llc_->cpuRead(paddr, now);
    double lat = hit ? static_cast<double>(cfg_.llcHitLatency)
                     : static_cast<double>(cfg_.dramLatency);
    // With both noise terms zero the draws below add exactly 0.0, and
    // rng_ has no other consumer, so skipping them changes no result.
    if (cfg_.timerNoiseSigma != 0.0 || cfg_.outlierProb != 0.0) {
        lat += rng_.nextGaussian(0.0, cfg_.timerNoiseSigma);
        if (rng_.nextBool(cfg_.outlierProb))
            lat += static_cast<double>(cfg_.outlierCycles);
    }
    lat = std::max(lat, 1.0);
    return static_cast<Cycles>(lat);
}

bool
Hierarchy::cpuRead(Addr paddr, Cycles now)
{
    return llc_->cpuRead(paddr, now);
}

bool
Hierarchy::cpuWrite(Addr paddr, Cycles now)
{
    return llc_->cpuWrite(paddr, now);
}

void
Hierarchy::dmaWrite(Addr paddr, Addr bytes, Cycles now)
{
    if (bytes == 0)
        return;
    const Addr first = paddr & ~(blockBytes - 1);
    const Addr last = (paddr + bytes - 1) & ~(blockBytes - 1);
    const bool ddio = ddioEnabled();
    for (Addr block = first; block <= last; block += blockBytes) {
        if (ddio) {
            llc_->ioWrite(block, now);
            ++dma_.ddioBlocks;
        } else {
            // Memory-first DMA: write DRAM and snoop-invalidate.
            llc_->invalidateBlock(block);
            ++dma_.memWriteBlocks;
        }
    }
}

std::uint64_t
Hierarchy::memReadBlocks() const
{
    return llc_->stats().memReads;
}

std::uint64_t
Hierarchy::memWriteBlocks() const
{
    return llc_->stats().writebacks + dma_.memWriteBlocks;
}

} // namespace pktchase::cache
