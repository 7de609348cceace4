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
 *
 * Noise contract: a hierarchy's i-th timed read draws the i-th
 * (Gaussian, outlier) pair of Rng(HierarchyConfig::seed), and nothing
 * else draws from that stream, so the noise on read i is a pure
 * function of (config, i): one stream per config. The process
 * computes each stream once, into a read-only noise tape that every
 * hierarchy of the config reads through its own cursor, from any
 * thread. The tape holds one byte per read, the delta both the hit
 * and the miss latency take from their base; a read the byte cannot
 * express (an outlier, wide jitter, the clamp at one cycle) keeps its
 * exact (hit, miss) pair beside the tape. The tape grows on demand in
 * immutable blocks of 2^16 reads, each made when a cursor first
 * reaches it and never freed, and stops at 2^20 reads (1 MiB). A
 * hierarchy that reads past its end copies the generator as the tape
 * left it and draws each later read live. A noiseless config (both
 * terms zero) makes no tape and no draw.
 */

#ifndef PKTCHASE_CACHE_HIERARCHY_HH
#define PKTCHASE_CACHE_HIERARCHY_HH

#include <cstddef>
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

class NoiseTape;
struct NoiseBlock;

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
    /** Move the cursor to the next tape block; false past the tape. */
    bool nextBlock();

    HierarchyConfig cfg_;
    std::unique_ptr<Llc> llc_;
    DmaStats dma_;

    // Cursor into the config's noise tape: the next read's entry and
    // the end of its block. They are equal before the first noisy
    // timed read, for a noiseless config, and past the tape.
    const std::int8_t *next_ = nullptr;
    const std::int8_t *end_ = nullptr;
    const NoiseBlock *block_ = nullptr;
    NoiseTape *tape_ = nullptr;  ///< Null if noiseless or past the tape.
    std::size_t blocksRead_ = 0; ///< Tape blocks the cursor has entered.
    Rng rng_; ///< Draws the reads past the tape.
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_HIERARCHY_HH
