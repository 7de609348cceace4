/**
 * @file
 * Tests for the LLC's LRU replacement, especially the masked victim
 * selection that partitioning relies on.
 */

#include <gtest/gtest.h>

#include "cache/replacement.hh"
#include "sim/rng.hh"

using namespace pktchase;
using namespace pktchase::cache;

namespace
{

constexpr std::size_t kSets = 8;
constexpr unsigned kWays = 8;
constexpr WayMask kFull = (WayMask(1) << kWays) - 1;

} // namespace

TEST(Lru, VictimAlwaysInMask)
{
    LruPolicy lru(kSets, kWays);
    Rng rng(1);
    for (int t = 0; t < 2000; ++t) {
        const std::size_t set = rng.nextBounded(kSets);
        WayMask mask = static_cast<WayMask>(
            rng.nextBounded((1u << kWays) - 1) + 1);
        const unsigned v = lru.victim(set, mask);
        EXPECT_LT(v, kWays);
        EXPECT_TRUE(mask & (WayMask(1) << v));
        lru.touch(set, v);
    }
}

TEST(Lru, SingletonMaskForcesTheWay)
{
    LruPolicy lru(kSets, kWays);
    for (unsigned w = 0; w < kWays; ++w)
        EXPECT_EQ(lru.victim(0, WayMask(1) << w), w);
}

TEST(Lru, TouchKeepsRecentWaySafeUnderFullMask)
{
    LruPolicy lru(kSets, kWays);
    // Touch ways 0..kWays-1 in order; the first touched is the victim.
    for (unsigned w = 0; w < kWays; ++w)
        lru.touch(3, w);
    EXPECT_EQ(lru.victim(3, kFull), 0u);
    // After re-touching 0, the victim must not be 0.
    lru.touch(3, 0);
    EXPECT_NE(lru.victim(3, kFull), 0u);
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy lru(kSets, kWays);
    for (unsigned w = 0; w < kWays; ++w)
        lru.touch(0, w);
    // Set 1 is untouched; set 0's history must not leak into it.
    EXPECT_LT(lru.victim(1, kFull), kWays);
}

TEST(LruDeath, EmptyMaskPanics)
{
    LruPolicy lru(kSets, kWays);
    EXPECT_DEATH(lru.victim(0, 0), "mask");
}

TEST(Lru, ExactLeastRecentlyUsedOrder)
{
    LruPolicy lru(1, 4);
    const WayMask full = 0xF;
    lru.touch(0, 2);
    lru.touch(0, 0);
    lru.touch(0, 3);
    lru.touch(0, 1);
    EXPECT_EQ(lru.victim(0, full), 2u);
    lru.touch(0, 2);
    EXPECT_EQ(lru.victim(0, full), 0u);
}

TEST(Lru, ResetMakesWayOldest)
{
    LruPolicy lru(1, 4);
    const WayMask full = 0xF;
    for (unsigned w = 0; w < 4; ++w)
        lru.touch(0, w);
    lru.reset(0, 3);
    EXPECT_EQ(lru.victim(0, full), 3u);
}

TEST(Lru, MaskedVictimIsOldestCandidate)
{
    LruPolicy lru(1, 4);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(0, 2);
    lru.touch(0, 3);
    // Restrict to {1, 3}: 1 is older.
    EXPECT_EQ(lru.victim(0, (1u << 1) | (1u << 3)), 1u);
}
