/**
 * @file
 * Tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace pktchase;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, FifoTieBreak)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runUntil(5);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, HorizonExcludesLaterEvents)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.schedule(50, [&] { ++ran; });
    EXPECT_EQ(eq.runUntil(20), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 5)
            eq.scheduleAfter(10, tick);
    };
    eq.schedule(0, tick);
    eq.runUntil(1000);
    EXPECT_EQ(count, 5);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StepSingleEvent)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(7, [&] { ++ran; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), 7u);
    EXPECT_EQ(ran, 1);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue eq;
    Cycles seen = 0;
    eq.schedule(123, [&] { seen = eq.now(); });
    eq.runUntil(200);
    EXPECT_EQ(seen, 123u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runUntil(100);
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}
