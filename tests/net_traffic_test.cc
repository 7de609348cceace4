/**
 * @file
 * Tests for traffic generation and line-rate pacing.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "net/traffic.hh"
#include "nic/igb_driver.hh"
#include "sim/event_queue.hh"

using namespace pktchase;
using namespace pktchase::net;

namespace
{

struct World
{
    mem::PhysMem phys{Addr(64) << 20, Rng(1)};
    cache::Hierarchy hier;
    EventQueue eq;
    nic::IgbDriver drv;

    World()
        : hier(llcCfg(), hierCfg(),
               cache::XorFoldSliceHash::twoSlice()),
          drv(igbCfg(), phys, hier)
    {
    }

    static cache::LlcConfig
    llcCfg()
    {
        cache::LlcConfig cfg;
        cfg.geom = cache::Geometry{2, 512, 8};
        return cfg;
    }

    static cache::HierarchyConfig
    hierCfg()
    {
        cache::HierarchyConfig cfg;
        cfg.timerNoiseSigma = 0.0;
        cfg.outlierProb = 0.0;
        return cfg;
    }

    static nic::IgbConfig
    igbCfg()
    {
        nic::IgbConfig cfg;
        cfg.ringSize = 16;
        return cfg;
    }
};

} // namespace

TEST(LineRate, ClassicMaxFrameRates)
{
    // 64 B frames + 20 B overhead at 1 Gb/s: the canonical 1.488 Mpps.
    EXPECT_NEAR(maxFrameRate(64), 1.488e6, 1e4);
    // Larger frames are slower; monotonicity.
    EXPECT_LT(maxFrameRate(1518), maxFrameRate(512));
    EXPECT_LT(maxFrameRate(512), maxFrameRate(64));
}

TEST(LineRate, WireCyclesMatchesRate)
{
    nic::Frame f;
    f.bytes = 192;
    const double per_packet = 1.0 / maxFrameRate(192);
    EXPECT_NEAR(static_cast<double>(wireCycles(f)),
                per_packet * coreFreqHz, 2.0);
}

TEST(ConstantStream, CountLimit)
{
    ConstantStream s(64, 1000.0, 5);
    nic::Frame f;
    Cycles gap = 0;
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(s.next(f, gap));
    EXPECT_FALSE(s.next(f, gap));
}

TEST(ConstantStream, RateClampedToLineRate)
{
    ConstantStream s(1514, 1e9, 1); // absurd rate
    nic::Frame f;
    Cycles gap = 0;
    ASSERT_TRUE(s.next(f, gap));
    EXPECT_GE(gap, wireCycles(f) - 1);
}

TEST(ConstantStream, ZeroRateMeansLineRate)
{
    ConstantStream s(256, 0.0, 1);
    nic::Frame f;
    Cycles gap = 0;
    ASSERT_TRUE(s.next(f, gap));
    EXPECT_NEAR(static_cast<double>(gap),
                coreFreqHz / maxFrameRate(256), 2.0);
}

TEST(PoissonBackground, MeanRateRoughlyCorrect)
{
    PoissonBackground src(10000.0, Rng(3), 20000);
    nic::Frame f;
    Cycles gap = 0;
    double total = 0;
    std::size_t n = 0;
    while (src.next(f, gap)) {
        total += cyclesToSeconds(gap);
        ++n;
    }
    EXPECT_EQ(n, 20000u);
    EXPECT_NEAR(total / static_cast<double>(n), 1e-4, 1e-5);
}

TEST(PoissonBackground, SizesWithinEthernetLimits)
{
    Rng rng(4);
    for (int i = 0; i < 10000; ++i) {
        const Addr s = PoissonBackground::sampleSize(rng);
        EXPECT_GE(s, nic::minFrameBytes);
        EXPECT_LE(s, nic::maxFrameBytes);
    }
}

TEST(PoissonBackground, BimodalMix)
{
    Rng rng(5);
    unsigned small = 0, large = 0, n = 20000;
    for (unsigned i = 0; i < n; ++i) {
        const Addr s = PoissonBackground::sampleSize(rng);
        if (s <= 128)
            ++small;
        if (s >= 1400)
            ++large;
    }
    EXPECT_NEAR(small / double(n), 0.45, 0.03);
    EXPECT_NEAR(large / double(n), 0.40, 0.03);
}

TEST(ReplayStream, PreservesOrder)
{
    std::vector<nic::Frame> frames;
    for (unsigned i = 1; i <= 4; ++i)
        frames.push_back(nic::frameOfBlocks(i));
    ReplayStream s(frames, 1000.0);
    nic::Frame f;
    Cycles gap = 0;
    for (unsigned i = 1; i <= 4; ++i) {
        ASSERT_TRUE(s.next(f, gap));
        EXPECT_EQ(f.blocks(), i);
    }
    EXPECT_FALSE(s.next(f, gap));
}

TEST(TrafficPump, DeliversAllFrames)
{
    World w;
    TrafficPump pump(w.eq, w.drv,
                     std::make_unique<ConstantStream>(64, 100000.0, 50),
                     100);
    // Every frame is its own event.
    EXPECT_EQ(w.eq.runUntil(secondsToCycles(0.01)), 50u);
    EXPECT_EQ(pump.delivered(), 50u);
    EXPECT_TRUE(pump.exhausted());
    EXPECT_EQ(w.drv.stats().framesReceived, 50u);
}

TEST(TrafficPump, LineSerialization)
{
    // Arrivals can never be closer than the frame's wire time.
    World w;
    std::vector<Cycles> arrivals;
    TrafficPump pump(w.eq, w.drv,
                     std::make_unique<ConstantStream>(1514, 0.0, 20),
                     100);
    pump.setObserver([&](const nic::Frame &, Cycles t) {
        arrivals.push_back(t);
    });
    w.eq.runUntil(secondsToCycles(0.01));
    ASSERT_EQ(arrivals.size(), 20u);
    nic::Frame f;
    f.bytes = 1514;
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i] - arrivals[i - 1], wireCycles(f));
}

TEST(TrafficPump, JitterPerturbsArrivals)
{
    World w;
    std::vector<Cycles> arrivals;
    TrafficPump pump(
        w.eq, w.drv,
        std::make_unique<ConstantStream>(64, 10000.0, 50), 100,
        5000.0, 99);
    pump.setObserver([&](const nic::Frame &, Cycles t) {
        arrivals.push_back(t);
    });
    w.eq.runUntil(secondsToCycles(0.1));
    ASSERT_EQ(arrivals.size(), 50u);
    // Gaps should vary (not all equal to the nominal period).
    std::set<Cycles> gaps;
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        gaps.insert(arrivals[i] - arrivals[i - 1]);
    EXPECT_GT(gaps.size(), 10u);
}

TEST(TrafficPump, ObserverSeesFrames)
{
    World w;
    unsigned count = 0;
    TrafficPump pump(w.eq, w.drv,
                     std::make_unique<ConstantStream>(128, 100000.0, 7),
                     100);
    pump.setObserver([&](const nic::Frame &f, Cycles) {
        EXPECT_EQ(f.bytes, 128u);
        ++count;
    });
    w.eq.runUntil(secondsToCycles(0.01));
    EXPECT_EQ(count, 7u);
}
