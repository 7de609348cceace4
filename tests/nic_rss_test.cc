/**
 * @file
 * Property tests for RSS flow steering and the multi-queue driver:
 * steering is a pure function of the flow id (same flow, same queue),
 * independent of packet order and driver state, and spreads a large
 * flow population near-uniformly; per-queue rings, policies, and
 * statistics are isolated; each queue receives its frames in arrival
 * order and numbers them 0, 1, 2, ... for its policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "net/traffic.hh"
#include "nic/igb_driver.hh"
#include "nic/rss.hh"
#include "testbed/testbed.hh"

using namespace pktchase;
using namespace pktchase::nic;

namespace
{

struct World
{
    mem::PhysMem phys;
    cache::Hierarchy hier;

    World()
        : phys(Addr(64) << 20, Rng(1)),
          hier(smallLlc(), quietHier(),
               cache::XorFoldSliceHash::twoSlice())
    {
    }

    static cache::LlcConfig
    smallLlc()
    {
        cache::LlcConfig cfg;
        cfg.geom = cache::Geometry{2, 512, 8};
        return cfg;
    }

    static cache::HierarchyConfig
    quietHier()
    {
        cache::HierarchyConfig cfg;
        cfg.timerNoiseSigma = 0.0;
        cfg.outlierProb = 0.0;
        return cfg;
    }
};

IgbConfig
multiQueue(std::size_t queues, std::size_t ring_size = 8)
{
    IgbConfig cfg;
    cfg.queues = queues;
    cfg.ringSize = ring_size;
    return cfg;
}

Frame
flowFrame(std::uint32_t flow, Addr bytes = 64)
{
    Frame f;
    f.bytes = bytes;
    f.protocol = Protocol::Tcp;
    f.flow = flow;
    return f;
}

} // namespace

TEST(RssSteering, SameFlowAlwaysSameQueue)
{
    const RssSteering rss(4);
    for (std::uint32_t flow = 0; flow < 500; ++flow) {
        const std::size_t q = rss.queueFor(flow);
        EXPECT_LT(q, 4u);
        for (int rep = 0; rep < 3; ++rep)
            EXPECT_EQ(rss.queueFor(flow), q) << "flow " << flow;
    }
}

TEST(RssSteering, SteeringIndependentOfPacketOrder)
{
    // Drive the same 64-flow frame set through two drivers in forward
    // and reversed order: every flow must land on the same queue both
    // times -- steering depends on the flow alone, not on driver state
    // or arrival history.
    std::vector<std::uint32_t> flows;
    for (std::uint32_t f = 0; f < 64; ++f)
        flows.push_back(f * 2654435761u + 3);

    auto queueOfFlows = [&](bool reversed) {
        World w;
        IgbDriver drv(multiQueue(4), w.phys, w.hier);
        std::vector<std::uint32_t> order = flows;
        if (reversed)
            std::reverse(order.begin(), order.end());
        std::vector<std::size_t> queue_of(flows.size());
        Cycles t = 0;
        for (std::uint32_t flow : order) {
            const std::size_t global =
                drv.receive(flowFrame(flow), t += 1000);
            const std::size_t idx = static_cast<std::size_t>(
                std::find(flows.begin(), flows.end(), flow) -
                flows.begin());
            queue_of[idx] = drv.queueOf(global);
        }
        return queue_of;
    };

    EXPECT_EQ(queueOfFlows(false), queueOfFlows(true));
}

TEST(RssSteering, TenThousandFlowsNearUniform)
{
    const RssSteering rss(4);
    std::size_t counts[4] = {0, 0, 0, 0};
    for (std::uint32_t flow = 0; flow < 10000; ++flow)
        ++counts[rss.queueFor(flow)];
    // Within +-20% of the uniform share per queue.
    for (std::size_t q = 0; q < 4; ++q) {
        EXPECT_GE(counts[q], 2000u) << "queue " << q;
        EXPECT_LE(counts[q], 3000u) << "queue " << q;
    }
}

TEST(RssSteering, HashMatchesDriverSteering)
{
    World w;
    IgbDriver drv(multiQueue(4), w.phys, w.hier);
    for (std::uint32_t flow = 0; flow < 200; ++flow) {
        const std::size_t global =
            drv.receive(flowFrame(flow), Cycles(flow) * 1000);
        EXPECT_EQ(drv.queueOf(global), drv.rss().queueFor(flow));
        EXPECT_LT(drv.slotOf(global), drv.config().ringSize);
    }
}

TEST(RssSteeringDeath, ZeroQueuesFatal)
{
    EXPECT_EXIT(RssSteering(0), ::testing::ExitedWithCode(1),
                "queue count");
}

TEST(MultiQueueDriver, PerQueueStatsAndRingsAreIsolated)
{
    World w;
    IgbDriver drv(multiQueue(4), w.phys, w.hier);

    // Find one flow per queue, then hammer queue-targeted streams.
    std::uint32_t flow_of[4];
    std::size_t found = 0;
    for (std::uint32_t f = 0; found < 4; ++f) {
        const std::size_t q = drv.rss().queueFor(f);
        if (std::none_of(flow_of, flow_of + found,
                         [&](std::uint32_t g) {
                             return drv.rss().queueFor(g) == q;
                         })) {
            flow_of[found++] = f;
        }
    }
    std::sort(flow_of, flow_of + 4,
              [&](std::uint32_t a, std::uint32_t b) {
                  return drv.rss().queueFor(a) < drv.rss().queueFor(b);
              });

    Cycles t = 0;
    for (std::size_t q = 0; q < 4; ++q)
        for (std::size_t n = 0; n <= q; ++n)
            drv.receive(flowFrame(flow_of[q]), t += 1000);

    for (std::size_t q = 0; q < 4; ++q) {
        EXPECT_EQ(drv.queueStats(q).framesReceived, q + 1)
            << "queue " << q;
        // Small frames recycle in place: ring heads advanced only by
        // this queue's own arrivals.
        EXPECT_EQ(drv.ring(q).head(), (q + 1) % drv.ring(q).size());
    }
    EXPECT_EQ(drv.stats().framesReceived, 1u + 2u + 3u + 4u);
}

TEST(MultiQueueDriver, PerQueuePoliciesActOnOwnRingOnly)
{
    World w;
    std::vector<std::unique_ptr<BufferPolicy>> policies;
    for (int q = 0; q < 2; ++q)
        policies.push_back(std::make_unique<FullRandomPolicy>());
    IgbDriver drv(multiQueue(2, 4), w.phys, w.hier,
                  std::move(policies));

    // One flow per queue.
    std::uint32_t f0 = 0;
    while (drv.rss().queueFor(f0) != 0)
        ++f0;
    std::uint32_t f1 = 0;
    while (drv.rss().queueFor(f1) != 1)
        ++f1;

    Cycles t = 0;
    for (int n = 0; n < 6; ++n)
        drv.receive(flowFrame(f0), t += 1000);
    EXPECT_EQ(drv.queueStats(0).buffersReallocated, 6u);
    EXPECT_EQ(drv.queueStats(1).buffersReallocated, 0u);

    for (int n = 0; n < 2; ++n)
        drv.receive(flowFrame(f1), t += 1000);
    EXPECT_EQ(drv.queueStats(1).buffersReallocated, 2u);
    EXPECT_EQ(drv.stats().buffersReallocated, 8u);
}

TEST(MultiQueueDriver, GroundTruthSpansAllQueuesQueueMajor)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.nicSpec = "nic.queues:4";
    testbed::Testbed tb(cfg);

    ASSERT_EQ(tb.driver().numQueues(), 4u);
    const auto all = tb.driver().groundTruthSets();
    EXPECT_EQ(all.size(), tb.driver().totalDescriptors());

    std::size_t off = 0;
    for (std::size_t q = 0; q < 4; ++q) {
        const auto qs = tb.driver().queueGroundTruthSets(q);
        ASSERT_EQ(qs.size(), tb.driver().ring(q).size());
        for (std::size_t i = 0; i < qs.size(); ++i)
            EXPECT_EQ(all[off + i], qs[i]) << "queue " << q;
        off += qs.size();
    }

    // The testbed's combo view agrees.
    const auto seqs = tb.queueComboSequences();
    ASSERT_EQ(seqs.size(), 4u);
    EXPECT_EQ(tb.ringComboSequence(2), seqs[2]);
}

TEST(MultiQueueDriverDeath, SinglePolicyWithManyQueuesFatal)
{
    World w;
    EXPECT_EXIT(
        IgbDriver(multiQueue(2), w.phys, w.hier,
                  std::make_unique<FullRandomPolicy>()),
        ::testing::ExitedWithCode(1), "per queue");
}

TEST(MultiQueueDriver, PumpedFramesTappedOnceInArrivalOrder)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.nicSpec = "nic.queues:4";
    testbed::Testbed tb(cfg);
    ASSERT_EQ(tb.driver().numQueues(), 4u);

    // Copy-break, page-flipping and dropped frames on three flows,
    // plus a 64-flow background spread over every queue: 1500 frames.
    auto mix = std::make_unique<net::FlowMix>();
    mix->add(std::make_unique<net::ConstantStream>(
        128, 40000.0, 400, Protocol::Tcp, 7));
    mix->add(std::make_unique<net::ConstantStream>(
        1024, 30000.0, 300, Protocol::Udp, 19));
    mix->add(std::make_unique<net::ConstantStream>(
        700, 25000.0, 300, Protocol::Unknown, 31));
    mix->add(std::make_unique<net::PoissonBackground>(
        50000.0, Rng(99), 500, 64));

    std::vector<std::vector<Cycles>> arrivals(4);
    std::set<std::pair<std::uint32_t, std::uint64_t>> tapped;
    for (std::size_t q = 0; q < 4; ++q) {
        tb.driver().queue(q).setDeliveryTap(
            [&, q](std::size_t, const Frame &frame, Cycles when) {
                arrivals[q].push_back(when);
                tapped.emplace(frame.flow, frame.id);
            });
    }

    net::TrafficPump pump(tb.eq(), tb.driver(), std::move(mix), 1000);
    tb.eq().runUntil(Cycles(1) << 40);
    EXPECT_TRUE(pump.exhausted());

    std::size_t total = 0;
    for (std::size_t q = 0; q < 4; ++q) {
        EXPECT_FALSE(arrivals[q].empty()) << "queue " << q;
        EXPECT_TRUE(std::is_sorted(arrivals[q].begin(),
                                   arrivals[q].end()))
            << "queue " << q << " tapped a frame before its predecessor";
        total += arrivals[q].size();
    }
    EXPECT_EQ(total, 1500u);
    EXPECT_EQ(tapped.size(), 1500u); // No frame was tapped twice.
}

namespace
{

/** Records the ordinal of every onPacket call on its queue. */
class RecordingPolicy : public BufferPolicy
{
  public:
    explicit RecordingPolicy(std::vector<std::uint64_t> &log) : log_(log)
    {
    }

    std::string name() const override { return "ring.none"; }

    HookTraits
    hookTraits() const override
    {
        return {false, true};
    }

    void
    onPacket(RxQueue &, std::uint64_t n) override
    {
        log_.push_back(n);
    }

  private:
    std::vector<std::uint64_t> &log_;
};

} // namespace

TEST(MultiQueueDriver, OnPacketOrdinalsCountEachQueuesOwnFrames)
{
    World w;
    std::vector<std::vector<std::uint64_t>> logs(2);
    std::vector<std::unique_ptr<BufferPolicy>> policies;
    for (auto &log : logs)
        policies.push_back(std::make_unique<RecordingPolicy>(log));
    IgbDriver drv(multiQueue(2, 16), w.phys, w.hier, std::move(policies));

    // Flows 0..5 interleave, so each queue's runs split and resume.
    std::vector<std::uint64_t> per_queue(2, 0);
    for (std::uint32_t i = 0; i < 96; ++i) {
        drv.receive(flowFrame(i % 6, 64 + 16 * (i % 8)),
                    Cycles(1000 + 500 * i));
        ++per_queue[drv.rss().queueFor(i % 6)];
    }

    for (std::size_t q = 0; q < 2; ++q) {
        ASSERT_GT(per_queue[q], 0u) << "queue " << q;
        std::vector<std::uint64_t> expected(per_queue[q]);
        std::iota(expected.begin(), expected.end(), 0u);
        EXPECT_EQ(logs[q], expected) << "queue " << q;
    }
}
