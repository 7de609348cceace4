#include "hierarchy.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "sim/logging.hh"

namespace pktchase::cache
{

namespace
{

constexpr std::size_t kBlockReads = std::size_t{1} << 16;
constexpr std::size_t kTapeBlocks = 16; ///< 2^20 reads, 1 MiB of deltas.

/** A tape entry whose latencies sit in its block's exact list. */
constexpr std::int8_t kExact = -128;

/**
 * The latency a timed read measures from @p base and one draw of each
 * noise term: the jitter, then the outlier, then the clamp at one
 * cycle. Tape and live reads both go through here.
 */
Cycles
measured(const HierarchyConfig &cfg, Cycles base, double jitter,
         bool outlier)
{
    double lat = static_cast<double>(base);
    lat += jitter;
    if (outlier)
        lat += static_cast<double>(cfg.outlierCycles);
    lat = std::max(lat, 1.0);
    return static_cast<Cycles>(lat);
}

/**
 * A timed read's latency drawn live from @p rng: a noiseless config's
 * reads, and the reads past the tape.
 */
Cycles
liveLatency(const HierarchyConfig &cfg, Rng &rng, bool hit)
{
    const Cycles base = hit ? cfg.llcHitLatency : cfg.dramLatency;
    // With both noise terms zero the draws would add exactly 0.0, and
    // rng has no other consumer, so skipping them changes no result.
    if (cfg.timerNoiseSigma == 0.0 && cfg.outlierProb == 0.0)
        return static_cast<Cycles>(std::max(static_cast<double>(base), 1.0));
    const double jitter = rng.nextGaussian(0.0, cfg.timerNoiseSigma);
    return measured(cfg, base, jitter, rng.nextBool(cfg.outlierProb));
}

std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

} // namespace

/** 2^16 consecutive reads of a tape; immutable once published. */
struct NoiseBlock
{
    /** The latencies of a read the delta byte cannot hold. */
    struct Exact
    {
        std::uint32_t index; ///< Read index within the block.
        Cycles hit;
        Cycles miss;
    };

    /** Per read: the delta both base latencies take, or kExact. */
    std::array<std::int8_t, kBlockReads> delta;
    std::vector<Exact> exact; ///< The kExact reads, by index.
};

/** One config's noise stream, computed once per process. */
class NoiseTape
{
  public:
    explicit NoiseTape(const HierarchyConfig &cfg)
        : cfg_(cfg), gen_(cfg.seed)
    {
    }

    /** Block @p b, made on first request; nullptr past the tape. */
    const NoiseBlock *
    block(std::size_t b)
    {
        if (b >= kTapeBlocks)
            return nullptr;
        const std::lock_guard<std::mutex> lock(mutex_);
        for (; built_ <= b; ++built_)
            blocks_[built_] = makeBlock();
        return blocks_[b].get();
    }

    /** The generator as the tape's last read left it. */
    Rng
    endState()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return gen_;
    }

  private:
    std::unique_ptr<const NoiseBlock>
    makeBlock()
    {
        auto blk = std::make_unique<NoiseBlock>();
        for (std::uint32_t i = 0; i < kBlockReads; ++i) {
            const double jitter =
                gen_.nextGaussian(0.0, cfg_.timerNoiseSigma);
            const bool outlier = gen_.nextBool(cfg_.outlierProb);
            const Cycles hit =
                measured(cfg_, cfg_.llcHitLatency, jitter, outlier);
            const Cycles miss =
                measured(cfg_, cfg_.dramLatency, jitter, outlier);
            // Unsigned deltas: d + 127 <= 254 keeps d in [-127, 127].
            const Cycles d = hit - cfg_.llcHitLatency;
            if (d == miss - cfg_.dramLatency && d + 127 <= 254) {
                blk->delta[i] = static_cast<std::int8_t>(d);
            } else {
                blk->delta[i] = kExact;
                blk->exact.push_back({i, hit, miss});
            }
        }
        return blk;
    }

    const HierarchyConfig cfg_;
    std::mutex mutex_;
    Rng gen_; ///< Positioned after the last built block's reads.
    std::size_t built_ = 0;
    std::array<std::unique_ptr<const NoiseBlock>, kTapeBlocks> blocks_;
};

namespace
{

/** The latency of @p block's kExact read at @p entry. */
Cycles
exactLatency(const NoiseBlock &block, const std::int8_t *entry, bool hit)
{
    const auto index = static_cast<std::uint32_t>(entry - block.delta.data());
    const auto it = std::lower_bound(
        block.exact.begin(), block.exact.end(), index,
        [](const NoiseBlock::Exact &e, std::uint32_t i) {
            return e.index < i;
        });
    return hit ? it->hit : it->miss;
}

/** The tape of @p cfg, shared by every hierarchy of that config. */
NoiseTape &
tapeFor(const HierarchyConfig &cfg)
{
    using Key = std::array<std::uint64_t, 6>;
    static_assert(sizeof(HierarchyConfig) == sizeof(Key),
                  "key the noise tapes on every HierarchyConfig field");
    struct Registry
    {
        std::mutex mutex;
        std::map<Key, std::unique_ptr<NoiseTape>> tapes;
    };
    // Never destroyed, so it outlives every hierarchy.
    static Registry &registry = *new Registry;
    const Key key{cfg.llcHitLatency,       cfg.dramLatency,
                  bitsOf(cfg.timerNoiseSigma), bitsOf(cfg.outlierProb),
                  cfg.outlierCycles,       cfg.seed};
    const std::lock_guard<std::mutex> lock(registry.mutex);
    std::unique_ptr<NoiseTape> &tape = registry.tapes[key];
    if (!tape)
        tape = std::make_unique<NoiseTape>(cfg);
    return *tape;
}

} // namespace

Hierarchy::Hierarchy(const LlcConfig &llc_cfg, const HierarchyConfig &cfg,
                     std::unique_ptr<SliceHash> hash,
                     std::unique_ptr<InjectionPolicy> policy)
    : cfg_(cfg),
      llc_(std::make_unique<Llc>(llc_cfg, std::move(hash),
                                 std::move(policy))),
      tape_(cfg.timerNoiseSigma != 0.0 || cfg.outlierProb != 0.0
                ? &tapeFor(cfg)
                : nullptr),
      rng_(cfg.seed)
{
}

Cycles
Hierarchy::timedRead(Addr paddr, Cycles now)
{
    const bool hit = llc_->cpuRead(paddr, now);
    if (!tape_ || (next_ == end_ && !nextBlock()))
        return liveLatency(cfg_, rng_, hit);
    const std::int8_t d = *next_++;
    if (d == kExact)
        return exactLatency(*block_, next_ - 1, hit);
    return (hit ? cfg_.llcHitLatency : cfg_.dramLatency) +
        static_cast<Cycles>(d);
}

bool
Hierarchy::nextBlock()
{
    block_ = tape_->block(blocksRead_);
    if (!block_) {
        rng_ = tape_->endState();
        tape_ = nullptr;
        return false;
    }
    ++blocksRead_;
    next_ = block_->delta.data();
    end_ = next_ + block_->delta.size();
    return true;
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
