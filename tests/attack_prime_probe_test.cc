/**
 * @file
 * Tests for the PRIME+PROBE monitor primitives.
 */

#include <gtest/gtest.h>

#include "attack/prime_probe.hh"
#include "attack/probe_params.hh"
#include "testbed/testbed.hh"

using namespace pktchase;
using namespace pktchase::attack;

namespace
{

struct Fixture : ::testing::Test
{
    testbed::Testbed tb{quietConfig()};

    static testbed::TestbedConfig
    quietConfig()
    {
        testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
        cfg.hier.timerNoiseSigma = 0.0;
        cfg.hier.outlierProb = 0.0;
        return cfg;
    }

    PrimeProbeMonitor
    makeMonitor(std::vector<std::size_t> combos)
    {
        std::vector<EvictionSet> sets;
        for (std::size_t c : combos)
            sets.push_back(tb.groups().evictionSetFor(
                c, tb.config().llc.geom.ways));
        return PrimeProbeMonitor(tb.hier(), std::move(sets), 130);
    }
};

/**
 * Active sets seen over 2001 back-to-back rounds of 32 active combos on
 * an idle full-size testbed, at ProbeParams defaults.
 */
std::uint64_t
idleActivations(double timer_noise_sigma, double outlier_prob)
{
    testbed::TestbedConfig cfg;
    cfg.hier.timerNoiseSigma = timer_noise_sigma;
    cfg.hier.outlierProb = outlier_prob;
    testbed::Testbed tb(cfg);
    std::vector<std::size_t> combos = tb.activeCombos();
    combos.resize(32);
    const ProbeParams probe;
    std::vector<EvictionSet> sets;
    for (std::size_t c : combos)
        sets.push_back(tb.groups().evictionSetFor(c, probe.ways));
    PrimeProbeMonitor mon(tb.hier(), std::move(sets),
                          probe.missThreshold);
    Cycles t = tb.eq().now();
    t += mon.primeAll(t);
    std::uint64_t active = 0;
    for (int round = 0; round < 2001; ++round) {
        const ProbeSample &s = mon.probeAll(t);
        t = s.end;
        for (std::uint8_t a : s.active)
            active += a;
    }
    return active;
}

} // namespace

TEST(IdleTestbed, ProbeActivationsComeOnlyFromTimerOutliers)
{
    // Nothing displaces the spy's lines on an idle testbed, so a probe
    // sees a miss only when the hierarchy's timer outlier (outlierProb
    // per timed read, outlierCycles on top of the hit) pushes a hit
    // past the threshold; the Gaussian jitter never does.
    EXPECT_EQ(idleActivations(4.0, 0.0), 0u);
    EXPECT_EQ(idleActivations(0.0, 0.0), 0u);
    // 1.28 M timed reads at the default 2e-6 expect 2.6 outliers: the
    // default model must show some, or the zeros above prove nothing.
    const cache::HierarchyConfig defaults;
    EXPECT_GT(idleActivations(defaults.timerNoiseSigma,
                              defaults.outlierProb),
              0u);
}

TEST_F(Fixture, QuietAfterPrime)
{
    PrimeProbeMonitor mon = makeMonitor({0, 1, 2});
    mon.primeAll(0);
    const ProbeSample s = mon.probeAll(1000);
    for (auto a : s.active)
        EXPECT_EQ(a, 0);
}

TEST_F(Fixture, DetectsPlantedIoWrite)
{
    PrimeProbeMonitor mon = makeMonitor({0, 1, 2});
    mon.primeAll(0);
    mon.probeAll(1000);
    // A packet lands in a page of combo 1.
    const Addr page =
        tb.groups().groups[1][tb.config().llc.geom.ways + 2];
    tb.hier().dmaWrite(page, 64, 2000);
    const ProbeSample s = mon.probeAll(3000);
    EXPECT_EQ(s.active[0], 0);
    EXPECT_EQ(s.active[1], 1);
    EXPECT_EQ(s.active[2], 0);
}

TEST_F(Fixture, ActivityClearsAfterOneProbe)
{
    // Probing re-primes: the next round is quiet again.
    PrimeProbeMonitor mon = makeMonitor({1});
    mon.primeAll(0);
    tb.hier().dmaWrite(
        tb.groups().groups[1][tb.config().llc.geom.ways + 1], 64, 100);
    const ProbeSample hot = mon.probeAll(1000);
    EXPECT_EQ(hot.active[0], 1);
    const ProbeSample cold = mon.probeAll(5000);
    EXPECT_EQ(cold.active[0], 0);
}

TEST_F(Fixture, ProbeTimeAccounted)
{
    PrimeProbeMonitor mon = makeMonitor({0, 1, 2, 3});
    mon.primeAll(0);
    const ProbeSample s = mon.probeAll(10000);
    // 4 sets x ways hits at >= hit latency each.
    const Cycles min_cost = 4 * tb.config().llc.geom.ways *
        tb.config().hier.llcHitLatency;
    EXPECT_GE(s.end - s.start, min_cost);
    EXPECT_EQ(s.start, 10000u);
}

TEST_F(Fixture, ReplaceSetSwitchesTarget)
{
    PrimeProbeMonitor mon = makeMonitor({0});
    mon.replaceSet(0, tb.groups()
                          .evictionSetFor(0, tb.config().llc.geom.ways)
                          .atBlock(1));
    mon.primeAll(0);
    mon.probeAll(1000);
    const Addr victim_page =
        tb.groups().groups[0][tb.config().llc.geom.ways + 1];
    // Packet touching only block 0 is now invisible...
    tb.hier().dmaWrite(victim_page, 64, 2000);
    EXPECT_EQ(mon.probeAll(3000).active[0], 0);
    // ...but one touching block 1 is seen.
    tb.hier().dmaWrite(victim_page + blockBytes, 64, 4000);
    EXPECT_EQ(mon.probeAll(5000).active[0], 1);
}

TEST_F(Fixture, TimedLoadsAccumulate)
{
    PrimeProbeMonitor mon = makeMonitor({0, 1});
    const std::uint64_t after_prime =
        2 * tb.config().llc.geom.ways;
    mon.primeAll(0);
    EXPECT_EQ(mon.timedLoads(), after_prime);
    mon.probeAll(1000);
    EXPECT_EQ(mon.timedLoads(), 2 * after_prime);
}

TEST_F(Fixture, DeathOnBadIndex)
{
    PrimeProbeMonitor mon = makeMonitor({0});
    EXPECT_DEATH(mon.replaceSet(5, EvictionSet{}), "range");
}
