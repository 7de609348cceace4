/**
 * @file
 * ProbeEngine behavior under a multi-queue NIC: per-queue chase
 * cursors resync independently, the merged observation stream is
 * arrival-ordered and deterministic, and observers are isolated from
 * the engine and from each other. Ground truth comes from the
 * RxQueue delivery taps.
 */

#include <gtest/gtest.h>

#include <memory>

#include "attack/chasing.hh"
#include "attack/probe_engine.hh"
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

/** Build a two-stream chase engine over the testbed's rings. */
std::unique_ptr<ProbeEngine>
makeChaseEngine(testbed::Testbed &tb)
{
    ProbeEngineConfig ecfg;
    ecfg.probe.ways = tb.config().llc.geom.ways;
    ecfg.resyncTimeout = 2'000'000;
    auto engine = std::make_unique<ProbeEngine>(tb.hier(), ecfg);
    for (auto &seq : tb.chaseSequences())
        engine->addChaseStream(tb.groups(), std::move(seq));
    return engine;
}

} // namespace

TEST(ProbeEngineMultiQueue, PerQueueResyncAfterSenderDrop)
{
    testbed::Testbed tb(twoQueueConfig());
    const Cycles horizon = secondsToCycles(0.02);
    PumpedTraffic traffic = pumpSplitTraffic(tb, horizon);

    auto engine = makeChaseEngine(tb);
    ChasingObserver obs;
    engine->attach(obs);
    engine->run(tb.eq(), horizon);

    // The taps saw the split: queue 1's sender stopped early.
    EXPECT_GT(traffic.delivered[0], 3 * traffic.delivered[1]);
    EXPECT_GT(traffic.delivered[1], 0u);

    // Both cursors chased packets while their senders were live...
    EXPECT_GT(engine->stats(0).packets, 0u);
    EXPECT_GT(engine->stats(1).packets, 0u);

    // ...and only queue 1's cursor went out of sync (repeatedly: it
    // parks, the other queue's buffers sharing its combo occasionally
    // fake an advance, it parks again). Queue 0's sender never
    // stopped, so its cursor kept pace.
    EXPECT_GE(engine->stats(1).outOfSyncEvents, 2u);
    EXPECT_GT(engine->stats(1).outOfSyncEvents,
              engine->stats(0).outOfSyncEvents);

    // Observer totals match the engine's per-stream accounting.
    EXPECT_EQ(obs.packets().size(),
              engine->stats(0).packets + engine->stats(1).packets);
    EXPECT_EQ(obs.outOfSyncEvents(),
              engine->stats(0).outOfSyncEvents +
                  engine->stats(1).outOfSyncEvents);
}

TEST(ProbeEngineMultiQueue, MergedStreamIsArrivalOrderedAndTagged)
{
    testbed::Testbed tb(twoQueueConfig());
    const Cycles horizon = secondsToCycles(0.01);
    PumpedTraffic traffic = pumpSplitTraffic(tb, horizon);

    auto engine = makeChaseEngine(tb);
    ChasingObserver obs;
    engine->attach(obs);
    engine->run(tb.eq(), horizon);

    ASSERT_GT(obs.packets().size(), 10u);
    bool saw_q0 = false, saw_q1 = false;
    Cycles last = 0;
    for (const PacketObservation &p : obs.packets()) {
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

TEST(ProbeEngineMultiQueue, RunsAreDeterministic)
{
    auto run = [] {
        testbed::Testbed tb(twoQueueConfig());
        const Cycles horizon = secondsToCycles(0.01);
        PumpedTraffic traffic = pumpSplitTraffic(tb, horizon);
        auto engine = makeChaseEngine(tb);
        ChasingObserver obs;
        engine->attach(obs);
        engine->run(tb.eq(), horizon);
        return obs.packets();
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

TEST(ProbeEngineMultiQueue, ObserversAreIsolated)
{
    // Run 1: one observer. Run 2 (identical world): two observers.
    // Attaching a second observer must change nothing -- observers
    // cannot perturb the engine or each other.
    auto run = [](std::size_t observers) {
        testbed::Testbed tb(twoQueueConfig());
        const Cycles horizon = secondsToCycles(0.01);
        PumpedTraffic traffic = pumpSplitTraffic(tb, horizon);
        auto engine = makeChaseEngine(tb);
        std::vector<ChasingObserver> obs(observers);
        for (auto &o : obs)
            engine->attach(o);
        engine->run(tb.eq(), horizon);
        std::vector<std::vector<PacketObservation>> out;
        for (auto &o : obs)
            out.push_back(o.packets());
        return out;
    };
    const auto solo = run(1);
    const auto pair = run(2);
    ASSERT_EQ(pair.size(), 2u);

    // Both observers of run 2 saw the identical stream.
    ASSERT_EQ(pair[0].size(), pair[1].size());
    for (std::size_t i = 0; i < pair[0].size(); ++i) {
        EXPECT_EQ(pair[0][i].when, pair[1][i].when);
        EXPECT_EQ(pair[0][i].sizeClass, pair[1][i].sizeClass);
        EXPECT_EQ(pair[0][i].queue, pair[1][i].queue);
    }

    // And the same stream the solo run saw.
    ASSERT_EQ(solo[0].size(), pair[0].size());
    for (std::size_t i = 0; i < solo[0].size(); ++i) {
        EXPECT_EQ(solo[0][i].when, pair[0][i].when);
        EXPECT_EQ(solo[0][i].sizeClass, pair[0][i].sizeClass);
    }
}

TEST(ProbeEngineMultiQueue, MultiCtorMatchesSingleCtorAtOneQueue)
{
    // ChasingMonitor's multi-queue ctor with one sequence must be the
    // single-queue chase, draw for draw.
    auto run = [](bool multi) {
        testbed::Testbed tb(testbed::TestbedConfig{});
        const Cycles horizon = secondsToCycles(0.005);
        net::TrafficPump pump(
            tb.eq(), tb.driver(),
            std::make_unique<net::ConstantStream>(
                256, 40000.0, 150, nic::Protocol::Udp, 7),
            tb.eq().now() + 1000);
        ProbeEngineConfig cfg;
        cfg.probe.ways = tb.config().llc.geom.ways;
        auto seqs = tb.chaseSequences();
        std::unique_ptr<ChasingMonitor> chaser;
        if (multi) {
            chaser = std::make_unique<ChasingMonitor>(
                tb.hier(), tb.groups(), std::move(seqs), cfg);
        } else {
            chaser = std::make_unique<ChasingMonitor>(
                tb.hier(), tb.groups(), std::move(seqs[0]), cfg);
        }
        return chaser->chase(tb.eq(), horizon);
    };
    const ChaseResult single = run(false);
    const ChaseResult multi = run(true);
    EXPECT_EQ(single.probes, multi.probes);
    EXPECT_EQ(single.finalSlot, multi.finalSlot);
    ASSERT_EQ(single.packets.size(), multi.packets.size());
    for (std::size_t i = 0; i < single.packets.size(); ++i) {
        EXPECT_EQ(single.packets[i].when, multi.packets[i].when);
        EXPECT_EQ(single.packets[i].sizeClass,
                  multi.packets[i].sizeClass);
        EXPECT_EQ(single.packets[i].slot, multi.packets[i].slot);
    }
}
