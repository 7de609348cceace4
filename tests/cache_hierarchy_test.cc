/**
 * @file
 * Tests for the hierarchy facade: timing, DMA paths, traffic counters,
 * and the timed reads' noise stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"

using namespace pktchase;
using namespace pktchase::cache;

namespace
{

Hierarchy
makeHier(bool ddio, double noise = 0.0)
{
    LlcConfig llc;
    llc.geom = Geometry{1, 64, 4};
    HierarchyConfig cfg;
    cfg.timerNoiseSigma = noise;
    cfg.outlierProb = 0.0;
    std::unique_ptr<InjectionPolicy> policy;
    if (!ddio)
        policy = std::make_unique<NoDdioPolicy>();
    return Hierarchy(llc, cfg,
                     std::make_unique<IdentitySliceHash>(1, 0),
                     std::move(policy));
}

Hierarchy
makeNoisyHier(const HierarchyConfig &cfg)
{
    LlcConfig llc;
    llc.geom = Geometry{1, 64, 4};
    return Hierarchy(llc, cfg, std::make_unique<IdentitySliceHash>(1, 0));
}

/** Reads per noise-stream walk: past 2^20, then one more 2^16 and 3. */
constexpr std::uint64_t kLongWalk = (1u << 20) + (1u << 16) + 3;

/**
 * The measured latency of one timed read, written out per read: the
 * base latency, one Gaussian draw, one outlier trial, then the clamp
 * at one cycle.
 */
Cycles
referenceLatency(const HierarchyConfig &cfg, Rng &rng, bool hit)
{
    double lat = hit ? static_cast<double>(cfg.llcHitLatency)
                     : static_cast<double>(cfg.dramLatency);
    lat += rng.nextGaussian(0.0, cfg.timerNoiseSigma);
    if (rng.nextBool(cfg.outlierProb))
        lat += static_cast<double>(cfg.outlierCycles);
    lat = std::max(lat, 1.0);
    return static_cast<Cycles>(lat);
}

/**
 * Drives timed reads through a hierarchy and checks each one against
 * referenceLatency() on a fresh Rng(cfg.seed). The addresses are a
 * pseudo-random walk over 512 blocks, twice the test LLC's lines, so
 * hits and misses mix; the hit is read from the LLC before each read.
 */
class ReferenceWalk
{
  public:
    explicit ReferenceWalk(const HierarchyConfig &cfg)
        : cfg_(cfg), noise_(cfg.seed)
    {
    }

    /** Make @p n more timed reads through @p h. */
    void
    run(Hierarchy &h, std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i, ++reads_) {
            const Addr a = addrs_.nextBounded(512) * blockBytes;
            const bool hit = h.llc().contains(a);
            const Cycles want = referenceLatency(cfg_, noise_, hit);
            const Cycles got = h.timedRead(a, reads_);
            hits_ += hit ? 1 : 0;
            clamped_ += want == 1 ? 1 : 0;
            outliers_ += want >= cfg_.outlierCycles ? 1 : 0;
            if (got != want && mismatches_++ == 0) {
                std::ostringstream os;
                os << "read " << reads_ << " (" << (hit ? "hit" : "miss")
                   << "): got " << got << ", want " << want;
                firstMismatch_ = os.str();
            }
        }
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t clamped() const { return clamped_; }
    std::uint64_t outliers() const { return outliers_; }
    std::uint64_t mismatches() const { return mismatches_; }
    const std::string &firstMismatch() const { return firstMismatch_; }

  private:
    HierarchyConfig cfg_;
    Rng noise_;
    Rng addrs_{0x5eed};
    std::uint64_t reads_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t clamped_ = 0;
    std::uint64_t outliers_ = 0;
    std::uint64_t mismatches_ = 0;
    std::string firstMismatch_;
};

} // namespace

TEST(Hierarchy, MissThenHitLatencies)
{
    Hierarchy h = makeHier(true);
    const Cycles miss = h.timedRead(0x1000, 0);
    const Cycles hit = h.timedRead(0x1000, 1);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(miss, h.config().dramLatency);
    EXPECT_EQ(hit, h.config().llcHitLatency);
}

TEST(Hierarchy, NoiseStaysClassifiable)
{
    Hierarchy h = makeHier(true, 4.0);
    // With sigma 4 the hit/miss populations must not cross a mid
    // threshold; this is what makes PRIME+PROBE classification work.
    for (int i = 0; i < 2000; ++i) {
        const Cycles hit = h.timedRead(0x2000, i);
        if (i > 0) {
            EXPECT_LT(hit, 130u);
        }
    }
}

TEST(Hierarchy, DdioDmaInjectsIntoLlc)
{
    Hierarchy h = makeHier(true);
    h.dmaWrite(0x4000, 256, 0);
    for (Addr a = 0x4000; a < 0x4100; a += blockBytes)
        EXPECT_TRUE(h.llc().containsIoLine(a));
    EXPECT_EQ(h.dmaStats().ddioBlocks, 4u);
    EXPECT_EQ(h.dmaStats().memWriteBlocks, 0u);
}

TEST(Hierarchy, NonDdioDmaGoesToMemoryAndInvalidates)
{
    Hierarchy h = makeHier(false);
    h.cpuRead(0x4000, 0);
    ASSERT_TRUE(h.llc().contains(0x4000));
    h.dmaWrite(0x4000, 64, 1);
    EXPECT_FALSE(h.llc().contains(0x4000));
    EXPECT_EQ(h.dmaStats().memWriteBlocks, 1u);
    EXPECT_EQ(h.dmaStats().ddioBlocks, 0u);
}

TEST(Hierarchy, DmaPartialBlocksRoundToBlocks)
{
    Hierarchy h = makeHier(true);
    h.dmaWrite(0x8000 + 32, 64, 0); // straddles two blocks
    EXPECT_EQ(h.dmaStats().ddioBlocks, 2u);
}

TEST(Hierarchy, DmaZeroBytesIsNoop)
{
    Hierarchy h = makeHier(true);
    h.dmaWrite(0x8000, 0, 0);
    EXPECT_EQ(h.dmaStats().ddioBlocks, 0u);
}

TEST(Hierarchy, MemTrafficCountsBothPaths)
{
    Hierarchy h = makeHier(false);
    h.dmaWrite(0x1000, 128, 0);      // 2 blocks to memory
    h.cpuRead(0x1000, 1);            // demand fetch: 1 read
    EXPECT_EQ(h.memWriteBlocks(), 2u);
    EXPECT_EQ(h.memReadBlocks(), 1u);
}

TEST(Hierarchy, WritebackCountedInMemWrites)
{
    Hierarchy h = makeHier(true);
    // Dirty a line then force eviction by filling the set.
    h.cpuWrite(0, 0);
    for (unsigned i = 1; i <= 4; ++i)
        h.cpuRead(Addr(i) * 64 * 64, i); // same set 0, new tags
    EXPECT_GE(h.memWriteBlocks(), 1u);
}

TEST(Hierarchy, TimedReadMinimumOneCycle)
{
    HierarchyConfig cfg;
    cfg.timerNoiseSigma = 1000.0; // absurd noise
    cfg.outlierProb = 0.0;
    LlcConfig llc;
    llc.geom = Geometry{1, 64, 4};
    Hierarchy h(llc, cfg, std::make_unique<IdentitySliceHash>(1, 0));
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(h.timedRead(0x1000, i), 1u);
}

TEST(HierarchyNoise, TimedReadsMatchTheReferenceDrawForDraw)
{
    HierarchyConfig fallback; // sigma 4, p 2e-6: every default testbed
    HierarchyConfig spikes;   // outliers only
    spikes.timerNoiseSigma = 0.0;
    spikes.outlierProb = 0.01;
    HierarchyConfig absurd;   // most reads far from the base; clamp fires
    absurd.timerNoiseSigma = 1000.0;
    absurd.outlierProb = 0.0;
    HierarchyConfig huge;     // outliers far past any small delta
    huge.outlierProb = 0.01;
    huge.outlierCycles = 200000;

    for (const HierarchyConfig &cfg : {fallback, spikes, absurd, huge}) {
        SCOPED_TRACE(::testing::Message()
                     << "sigma " << cfg.timerNoiseSigma << ", p "
                     << cfg.outlierProb << ", outlier "
                     << cfg.outlierCycles);
        ReferenceWalk walk(cfg);
        auto h = std::make_unique<Hierarchy>(makeNoisyHier(cfg));
        walk.run(*h, 100003);
        // A moved hierarchy continues its sequence, mid-block...
        h = std::make_unique<Hierarchy>(std::move(*h));
        walk.run(*h, (1u << 20) + 7 - walk.reads());
        // ...and past the first 2^20 reads.
        h = std::make_unique<Hierarchy>(std::move(*h));
        walk.run(*h, kLongWalk - walk.reads());
        EXPECT_EQ(walk.mismatches(), 0u) << walk.firstMismatch();
        EXPECT_GT(walk.hits(), walk.reads() / 4);
        EXPECT_LT(walk.hits(), walk.reads() * 3 / 4);
        if (cfg.timerNoiseSigma == 1000.0) {
            EXPECT_GT(walk.clamped(), 0u);
        }
        if (cfg.outlierProb == 0.01) {
            EXPECT_GT(walk.outliers(), 0u);
        }

        // Built after the first has passed 2^20 reads, a second
        // hierarchy of the same config starts again at draw 0.
        ReferenceWalk again(cfg);
        Hierarchy second = makeNoisyHier(cfg);
        again.run(second, (1u << 16) + 3);
        EXPECT_EQ(again.mismatches(), 0u) << again.firstMismatch();
    }
}

TEST(HierarchyNoise, ConcurrentHierarchiesMatchTheReference)
{
    // Four threads at once, each reading across three 2^16-read
    // boundaries through a hierarchy of its own seed and, interleaved,
    // one of a seed the four share. No other case uses these seeds.
    constexpr unsigned kThreads = 4;
    static constexpr std::uint64_t kReads = 3 * (1u << 16) + 11;
    static constexpr std::uint64_t kChunk = 4099;
    std::vector<std::string> failures(2 * kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&failures, t] {
            HierarchyConfig own;
            own.seed = 1001 + t;
            HierarchyConfig shared;
            shared.seed = 1000;
            ReferenceWalk ownWalk(own);
            ReferenceWalk sharedWalk(shared);
            Hierarchy ownHier = makeNoisyHier(own);
            Hierarchy sharedHier = makeNoisyHier(shared);
            while (ownWalk.reads() < kReads) {
                const std::uint64_t n =
                    std::min(kChunk, kReads - ownWalk.reads());
                ownWalk.run(ownHier, n);
                sharedWalk.run(sharedHier, n);
            }
            if (ownWalk.mismatches() != 0)
                failures[2 * t] = ownWalk.firstMismatch();
            if (sharedWalk.mismatches() != 0)
                failures[2 * t + 1] = sharedWalk.firstMismatch();
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (std::size_t i = 0; i < failures.size(); ++i)
        EXPECT_EQ(failures[i], "") << "thread " << i / 2
                                   << (i % 2 ? " (shared seed)" : "");
}
