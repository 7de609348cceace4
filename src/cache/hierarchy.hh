/**
 * @file
 * Memory hierarchy facade: latency model over the LLC plus the two DMA
 * injection paths (DDIO and memory-first).
 *
 * The attacker's PRIME+PROBE loads are modelled as reaching the LLC
 * directly (Mastik's probe loops are constructed to defeat L1/L2 with
 * pointer chasing), so the timing signal is "LLC hit latency" vs.
 * "DRAM latency" plus measurement noise. Noise has two components:
 * Gaussian jitter on every measurement and occasional large outliers
 * (interrupts, TLB walks), both configurable so experiments can sweep
 * the noise floor.
 */

#ifndef PKTCHASE_CACHE_HIERARCHY_HH
#define PKTCHASE_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>

#include "cache/llc.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace pktchase::cache
{

/** Latency and noise parameters for the hierarchy. */
struct HierarchyConfig
{
    Cycles llcHitLatency = 44;    ///< LLC hit, cross-slice average.
    Cycles dramLatency = 220;     ///< LLC miss serviced by DRAM.
    double timerNoiseSigma = 4.0; ///< Gaussian jitter on measurements.

    /**
     * Per-access probability of a large measurement outlier (timer
     * interrupt, TLB walk). The spy issues tens of millions of loads
     * per second, so this must be calibrated against an event rate,
     * not a fraction: 2e-6 at ~60M loads/s is roughly 120 spikes/s,
     * matching a quiet pinned core.
     */
    double outlierProb = 2e-6;
    Cycles outlierCycles = 3000;  ///< Magnitude of such a spike.
    std::uint64_t seed = 7;
};

/** Aggregate DMA-side traffic counters (non-LLC path). */
struct DmaStats
{
    std::uint64_t ddioBlocks = 0;     ///< Blocks injected via DDIO.
    std::uint64_t memWriteBlocks = 0; ///< Blocks written straight to DRAM.
};

/**
 * Facade combining the LLC, a flat DRAM latency, and the I/O paths.
 */
class Hierarchy
{
  public:
    /**
     * @param llc_cfg  LLC configuration.
     * @param cfg      Latency/noise configuration.
     * @param hash     Slice hash (owned).
     * @param policy   DMA injection policy (owned by the LLC); nullptr
     *                 means the DDIO baseline.
     */
    Hierarchy(const LlcConfig &llc_cfg, const HierarchyConfig &cfg,
              std::unique_ptr<SliceHash> hash,
              std::unique_ptr<InjectionPolicy> policy = nullptr);

    /**
     * Timed CPU read as the attacker measures it.
     * @return The measured latency in cycles (includes noise; the bare
     *         hit or DRAM latency when both noise terms are zero).
     */
    Cycles timedRead(Addr paddr, Cycles now);

    /** Untimed CPU read (victim/driver activity). @return true on hit. */
    bool cpuRead(Addr paddr, Cycles now);

    /** Untimed CPU write. @return true on hit. */
    bool cpuWrite(Addr paddr, Cycles now);

    /**
     * NIC DMA write of @p bytes starting at @p paddr. With DDIO the
     * blocks are injected into the LLC (dirty); without, they are
     * written to memory and any cached copies invalidated.
     */
    void dmaWrite(Addr paddr, Addr bytes, Cycles now);

    /** Whether DDIO injection is active (the policy injects to LLC). */
    bool ddioEnabled() const
    {
        return llc_->injectionPolicy().injectsToLlc();
    }

    /** Total memory read traffic in blocks (fills). */
    std::uint64_t memReadBlocks() const;

    /** Total memory write traffic in blocks (writebacks + DMA). */
    std::uint64_t memWriteBlocks() const;

    Llc &llc() { return *llc_; }
    const Llc &llc() const { return *llc_; }
    const DmaStats &dmaStats() const { return dma_; }
    const HierarchyConfig &config() const { return cfg_; }

  private:
    HierarchyConfig cfg_;
    std::unique_ptr<Llc> llc_;
    DmaStats dma_;
    Rng rng_;
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_HIERARCHY_HH
