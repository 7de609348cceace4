/**
 * @file
 * ChasingMonitor under a multi-queue NIC: per-queue chase cursors
 * resync independently, and the merged packet list is arrival-ordered
 * and deterministic. Ground truth comes from the RxQueue delivery
 * taps.
 */

#include <gtest/gtest.h>

#include <memory>

#include "attack/chasing.hh"
#include "net/traffic.hh"
#include "testbed/testbed.hh"

using namespace pktchase;
using namespace pktchase::attack;

namespace
{

/** A two-queue full-size testbed. */
testbed::TestbedConfig
twoQueueConfig()
{
    testbed::TestbedConfig cfg;
    cfg.nicSpec = "nic.queues:2";
    return cfg;
}

/** Smallest flow id RSS steers to queue @p q. */
std::uint32_t
flowFor(testbed::Testbed &tb, std::size_t q)
{
    for (std::uint32_t f = 1; f < 100000; ++f)
        if (tb.driver().rss().queueFor(f) == q)
            return f;
    ADD_FAILURE() << "no flow maps to queue " << q;
    return 0;
}

/**
 * Pump 256 B frames onto both queues: queue 0 for the whole horizon,
 * queue 1 only for the first quarter (its sender "drops out").
 * Returns per-queue delivery counts from the RxQueue taps.
 */
struct PumpedTraffic
{
    std::unique_ptr<net::TrafficPump> pump;
    std::size_t delivered[2] = {0, 0};
};

PumpedTraffic
pumpSplitTraffic(testbed::Testbed &tb, Cycles horizon)
{
    PumpedTraffic t;
    const double rate = 40000.0;
    const double secs = cyclesToSeconds(horizon);
    auto mix = std::make_unique<net::FlowMix>();
    mix->add(std::make_unique<net::ConstantStream>(
        256, rate, static_cast<std::uint64_t>(rate * secs),
        nic::Protocol::Udp, flowFor(tb, 0)));
    mix->add(std::make_unique<net::ConstantStream>(
        256, rate, static_cast<std::uint64_t>(rate * secs / 4),
        nic::Protocol::Udp, flowFor(tb, 1)));
    t.pump = std::make_unique<net::TrafficPump>(
        tb.eq(), tb.driver(), std::move(mix), tb.eq().now() + 1000);
    for (std::size_t q = 0; q < 2; ++q) {
        tb.driver().queue(q).setDeliveryTap(
            [&t, q](std::size_t, const nic::Frame &, Cycles) {
                ++t.delivered[q];
            });
    }
    return t;
}

/** Chase both of the testbed's rings to @p horizon. */
ChaseResult
chaseBothQueues(testbed::Testbed &tb, Cycles horizon)
{
    ChaseConfig cfg;
    cfg.probe.ways = tb.config().llc.geom.ways;
    cfg.resyncTimeout = 2'000'000;
    ChasingMonitor chaser(tb.hier(), tb.groups(), tb.chaseSequences(),
                          cfg);
    return chaser.chase(tb.eq(), horizon);
}

} // namespace

TEST(ChasingMonitorMultiQueue, PerQueueResyncAfterSenderDrop)
{
    testbed::Testbed tb(twoQueueConfig());
    const Cycles horizon = secondsToCycles(0.02);
    PumpedTraffic traffic = pumpSplitTraffic(tb, horizon);

    const ChaseResult r = chaseBothQueues(tb, horizon);
    ASSERT_EQ(r.queues.size(), 2u);

    // The taps saw the split: queue 1's sender stopped early.
    EXPECT_GT(traffic.delivered[0], 3 * traffic.delivered[1]);
    EXPECT_GT(traffic.delivered[1], 0u);

    // Both cursors chased packets while their senders were live...
    EXPECT_GT(r.queues[0].packets, 0u);
    EXPECT_GT(r.queues[1].packets, 0u);

    // ...and only queue 1's cursor went out of sync (repeatedly: it
    // parks, the other queue's buffers sharing its combo occasionally
    // fake an advance, it parks again). Queue 0's sender never
    // stopped, so its cursor kept pace.
    EXPECT_GE(r.queues[1].outOfSyncEvents, 2u);
    EXPECT_GT(r.queues[1].outOfSyncEvents, r.queues[0].outOfSyncEvents);

    // The merged list and totals match the per-queue accounting.
    EXPECT_EQ(r.packets.size(), r.queues[0].packets + r.queues[1].packets);
    EXPECT_EQ(r.outOfSyncEvents,
              r.queues[0].outOfSyncEvents + r.queues[1].outOfSyncEvents);
    EXPECT_EQ(r.probes, r.queues[0].probes + r.queues[1].probes);
}

TEST(ChasingMonitorMultiQueue, MergedStreamIsArrivalOrderedAndTagged)
{
    testbed::Testbed tb(twoQueueConfig());
    const Cycles horizon = secondsToCycles(0.01);
    PumpedTraffic traffic = pumpSplitTraffic(tb, horizon);

    const ChaseResult r = chaseBothQueues(tb, horizon);

    ASSERT_GT(r.packets.size(), 10u);
    bool saw_q0 = false, saw_q1 = false;
    Cycles last = 0;
    for (const PacketObservation &p : r.packets) {
        EXPECT_GE(p.when, last); // arrival-ordered merge
        last = p.when;
        saw_q0 |= p.queue == 0;
        saw_q1 |= p.queue == 1;
        EXPECT_LT(p.queue, 2u);
        EXPECT_LT(p.slot, tb.driver().ring(p.queue).size());
    }
    EXPECT_TRUE(saw_q0);
    EXPECT_TRUE(saw_q1);
}

TEST(ChasingMonitorMultiQueue, RunsAreDeterministic)
{
    auto run = [] {
        testbed::Testbed tb(twoQueueConfig());
        const Cycles horizon = secondsToCycles(0.01);
        PumpedTraffic traffic = pumpSplitTraffic(tb, horizon);
        return chaseBothQueues(tb, horizon).packets;
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].when, b[i].when);
        EXPECT_EQ(a[i].sizeClass, b[i].sizeClass);
        EXPECT_EQ(a[i].queue, b[i].queue);
        EXPECT_EQ(a[i].slot, b[i].slot);
    }
}
