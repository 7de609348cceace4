/**
 * @file
 * End-to-end covert-channel tests: trojan -> NIC -> LLC -> spy.
 */

#include <gtest/gtest.h>

#include "channel/capacity.hh"
#include "channel/trojan.hh"
#include "net/traffic.hh"
#include "sim/stats.hh"

using namespace pktchase;
using namespace pktchase::channel;

TEST(Trojan, EmitsBurstPerSymbol)
{
    TrojanSource trojan({0, 1}, Scheme::Binary, 3, 1000.0);
    nic::Frame f;
    Cycles gap = 0;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(trojan.next(f, gap));
        EXPECT_EQ(f.bytes, 64u);
    }
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(trojan.next(f, gap));
        EXPECT_EQ(f.bytes, 256u);
    }
    EXPECT_FALSE(trojan.next(f, gap));
    EXPECT_EQ(trojan.symbolsSent(), 2u);
}

TEST(Trojan, FramesAreOrdinaryBroadcast)
{
    TrojanSource trojan({2}, Scheme::Ternary, 1, 0.0);
    nic::Frame f;
    Cycles gap = 0;
    ASSERT_TRUE(trojan.next(f, gap));
    EXPECT_EQ(f.protocol, nic::Protocol::Unknown);
}

TEST(TestSymbols, DeterministicAndInRange)
{
    const auto a = testSymbols(Scheme::Ternary, 100);
    const auto b = testSymbols(Scheme::Ternary, 100);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 100u);
    for (unsigned s : a)
        EXPECT_LT(s, 3u);
}

TEST(PickMonitoredBuffers, SingleMappedAndSpaced)
{
    testbed::Testbed tb(testbed::TestbedConfig{});
    const auto buffers = pickMonitoredBuffers(tb, 4);
    ASSERT_EQ(buffers.size(), 4u);
    const auto singles = tb.singleBufferCombos();
    for (std::size_t c : buffers) {
        EXPECT_NE(std::find(singles.begin(), singles.end(), c),
                  singles.end());
    }
    // Distinct buffers.
    std::set<std::size_t> uniq(buffers.begin(), buffers.end());
    EXPECT_EQ(uniq.size(), 4u);
}

TEST(CovertChannel, BinaryRoundTripClean)
{
    testbed::Testbed tb(testbed::TestbedConfig{});
    ChannelRunConfig cfg;
    cfg.scheme = Scheme::Binary;
    cfg.nSymbols = 64;
    cfg.probeRateHz = 28000;
    const ChannelMeasurement m = runCovertChannel(tb, cfg);
    EXPECT_EQ(m.sent, 64u);
    EXPECT_LT(m.errorRate, 0.05);
    EXPECT_GT(m.bandwidthBps, 100.0);
}

TEST(CovertChannel, TernaryRoundTripClean)
{
    testbed::Testbed tb(testbed::TestbedConfig{});
    ChannelRunConfig cfg;
    cfg.scheme = Scheme::Ternary;
    cfg.nSymbols = 64;
    cfg.probeRateHz = 28000;
    const ChannelMeasurement m = runCovertChannel(tb, cfg);
    EXPECT_LT(m.errorRate, 0.08);
    // Ternary carries log2(3) bits/symbol at the same symbol rate.
    EXPECT_GT(m.bandwidthBps, 150.0);
}

TEST(CovertChannel, MultiBufferScalesBandwidth)
{
    testbed::Testbed tb1(testbed::TestbedConfig{});
    ChannelRunConfig cfg;
    cfg.scheme = Scheme::Binary;
    cfg.nSymbols = 48;
    ChannelMeasurement one = runCovertChannel(tb1, cfg);

    testbed::Testbed tb4(testbed::TestbedConfig{});
    cfg.monitoredBuffers = 4;
    ChannelMeasurement four = runCovertChannel(tb4, cfg);

    // Fig. 12a: bandwidth roughly doubles per doubling of buffers.
    EXPECT_GT(four.bandwidthBps, one.bandwidthBps * 2.5);
    EXPECT_LT(four.errorRate, 0.15);
}

TEST(CovertChannel, MultiBufferWorksOnMultiQueueNic)
{
    // RSS steers the trojan's one flow to one queue; every monitored
    // buffer must sit in that queue's ring.
    testbed::TestbedConfig tcfg;
    tcfg.nicSpec = "nic.queues:4";
    testbed::Testbed tb(tcfg);
    ChannelRunConfig cfg;
    cfg.scheme = Scheme::Ternary;
    cfg.nSymbols = 64;
    cfg.monitoredBuffers = 4;
    const ChannelMeasurement m = runCovertChannel(tb, cfg);
    EXPECT_EQ(m.sent, 64u);
    EXPECT_EQ(m.received, 64u);
    EXPECT_EQ(m.errorRate, 0.0);
}

TEST(CovertChannel, AdaptivePartitionClosesChannel)
{
    testbed::TestbedConfig tcfg;
    tcfg.cacheDefense = "cache.adaptive";
    testbed::Testbed tb(tcfg);
    ChannelRunConfig cfg;
    cfg.scheme = Scheme::Binary;
    cfg.nSymbols = 32;
    const ChannelMeasurement m = runCovertChannel(tb, cfg);
    // The defense guarantee: no CPU line evicted by I/O, so the spy
    // sees (almost) nothing.
    EXPECT_EQ(tb.hier().llc().stats().cpuEvictedByIo, 0u);
    EXPECT_GT(m.errorRate, 0.5);
}

TEST(ChasingChannel, FollowsSequenceAtModerateRate)
{
    testbed::Testbed tb(testbed::TestbedConfig{});
    ChasingChannelConfig cfg;
    cfg.targetBandwidthBps = 80000;
    cfg.nSymbols = 600;
    const ChannelMeasurement m = runChasingChannel(tb, cfg);
    EXPECT_GT(m.sent, 0u);
    EXPECT_LT(m.outOfSyncRate, 0.25);
    EXPECT_LT(m.errorRate, 0.10);
}

TEST(ChasingChannel, DegradesGracefullyWithSequenceErrors)
{
    testbed::Testbed tb(testbed::TestbedConfig{});
    ChasingChannelConfig cfg;
    cfg.targetBandwidthBps = 80000;
    cfg.nSymbols = 400;
    cfg.sequenceErrorRate = 0.05;
    const ChannelMeasurement m = runChasingChannel(tb, cfg);
    // Imperfect sequences raise the loss rate but must not zero the
    // channel (Sec. III-C: "small errors in the sequence are
    // tolerable").
    EXPECT_GT(m.received, m.sent / 2);
}
