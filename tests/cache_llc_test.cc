/**
 * @file
 * Tests for the LLC model: lookup, eviction, and the DDIO I/O
 * write-allocation policy whose contention the attack observes.
 */

#include <gtest/gtest.h>

#include "cache/llc.hh"
#include "sim/rng.hh"

using namespace pktchase;
using namespace pktchase::cache;

namespace
{

/** Small single-slice cache: set = (addr >> 6) & 63. */
Llc
makeSmall(unsigned ways = 4, unsigned ddio_ways = 2)
{
    LlcConfig cfg;
    cfg.geom = Geometry{1, 64, ways};
    cfg.ddioWays = ddio_ways;
    return Llc(cfg, std::make_unique<IdentitySliceHash>(1, 0));
}

/** Address of block @p i in set @p set (single-slice geometry). */
Addr
addrOf(unsigned set, unsigned i)
{
    return (Addr(i) * 64 + set) * blockBytes;
}

} // namespace

TEST(Llc, MissThenHit)
{
    Llc llc = makeSmall();
    EXPECT_FALSE(llc.cpuRead(addrOf(0, 0), 0));
    EXPECT_TRUE(llc.cpuRead(addrOf(0, 0), 1));
    EXPECT_EQ(llc.stats().cpuReads, 2u);
    EXPECT_EQ(llc.stats().cpuReadMisses, 1u);
}

TEST(Llc, SameBlockDifferentOffsetsHit)
{
    Llc llc = makeSmall();
    llc.cpuRead(100, 0);
    EXPECT_TRUE(llc.cpuRead(100 + 63 - (100 % 64), 1));
}

TEST(Llc, AssociativityEviction)
{
    Llc llc = makeSmall(4);
    for (unsigned i = 0; i < 4; ++i)
        llc.cpuRead(addrOf(5, i), i);
    // All four resident.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(llc.contains(addrOf(5, i)));
    // Fifth block evicts the LRU (block 0).
    llc.cpuRead(addrOf(5, 4), 10);
    EXPECT_FALSE(llc.contains(addrOf(5, 0)));
    EXPECT_TRUE(llc.contains(addrOf(5, 4)));
    EXPECT_EQ(llc.stats().cpuEvictedByCpu, 1u);
}

TEST(Llc, DistinctSetsDoNotConflict)
{
    Llc llc = makeSmall(4);
    for (unsigned set = 0; set < 8; ++set)
        for (unsigned i = 0; i < 4; ++i)
            llc.cpuRead(addrOf(set, i), set * 4 + i);
    for (unsigned set = 0; set < 8; ++set)
        for (unsigned i = 0; i < 4; ++i)
            EXPECT_TRUE(llc.contains(addrOf(set, i)));
}

TEST(Llc, WritebackOnDirtyEviction)
{
    Llc llc = makeSmall(2);
    llc.cpuWrite(addrOf(3, 0), 0);
    llc.cpuRead(addrOf(3, 1), 1);
    EXPECT_EQ(llc.stats().writebacks, 0u);
    llc.cpuRead(addrOf(3, 2), 2); // evicts dirty block 0
    EXPECT_EQ(llc.stats().writebacks, 1u);
}

TEST(Llc, CleanEvictionNoWriteback)
{
    Llc llc = makeSmall(2);
    llc.cpuRead(addrOf(3, 0), 0);
    llc.cpuRead(addrOf(3, 1), 1);
    llc.cpuRead(addrOf(3, 2), 2);
    EXPECT_EQ(llc.stats().writebacks, 0u);
}

TEST(Llc, IoWriteAllocatesDirtyIoLine)
{
    Llc llc = makeSmall();
    llc.ioWrite(addrOf(7, 0), 0);
    EXPECT_TRUE(llc.contains(addrOf(7, 0)));
    EXPECT_TRUE(llc.containsIoLine(addrOf(7, 0)));
    EXPECT_EQ(llc.stats().ioAllocations, 1u);
    // DDIO lines are dirty: flushing writes them back.
    llc.flushAll();
    EXPECT_EQ(llc.stats().writebacks, 1u);
}

TEST(Llc, DdioCapLimitsIoOccupancy)
{
    Llc llc = makeSmall(4, 2);
    for (unsigned i = 0; i < 8; ++i)
        llc.ioWrite(addrOf(9, i), i);
    EXPECT_EQ(llc.ioCount(llc.globalSet(addrOf(9, 0))), 2u);
    // Later I/O lines recycled within the cap; early ones evicted.
    EXPECT_TRUE(llc.contains(addrOf(9, 7)));
    EXPECT_FALSE(llc.contains(addrOf(9, 0)));
    EXPECT_EQ(llc.stats().ioEvictedByIo, 6u);
}

TEST(Llc, IoWriteEvictsCpuLineTheLeak)
{
    // The Packet Chasing observable: a full set of CPU (spy) lines
    // loses one to an incoming packet.
    Llc llc = makeSmall(4, 2);
    for (unsigned i = 0; i < 4; ++i)
        llc.cpuRead(addrOf(11, i), i);
    llc.ioWrite(addrOf(11, 100), 10);
    EXPECT_EQ(llc.stats().cpuEvictedByIo, 1u);
    EXPECT_FALSE(llc.contains(addrOf(11, 0))); // LRU spy line gone
}

TEST(Llc, IoWriteHitUpdatesInPlace)
{
    Llc llc = makeSmall();
    llc.ioWrite(addrOf(2, 0), 0);
    llc.ioWrite(addrOf(2, 0), 1);
    EXPECT_EQ(llc.stats().ioWriteHits, 1u);
    EXPECT_EQ(llc.stats().ioAllocations, 1u);
}

TEST(Llc, CpuWriteTakesOwnershipOfIoLine)
{
    Llc llc = makeSmall();
    llc.ioWrite(addrOf(2, 0), 0);
    EXPECT_TRUE(llc.containsIoLine(addrOf(2, 0)));
    llc.cpuWrite(addrOf(2, 0), 1);
    EXPECT_TRUE(llc.contains(addrOf(2, 0)));
    EXPECT_FALSE(llc.containsIoLine(addrOf(2, 0)));
}

TEST(Llc, CpuReadKeepsIoOwnership)
{
    // The driver's header read must not free up DDIO's budget.
    Llc llc = makeSmall();
    llc.ioWrite(addrOf(2, 0), 0);
    llc.cpuRead(addrOf(2, 0), 1);
    EXPECT_TRUE(llc.containsIoLine(addrOf(2, 0)));
}

TEST(Llc, InvalidateDropsWithoutWriteback)
{
    Llc llc = makeSmall();
    llc.cpuWrite(addrOf(4, 0), 0);
    llc.invalidateBlock(addrOf(4, 0));
    EXPECT_FALSE(llc.contains(addrOf(4, 0)));
    EXPECT_EQ(llc.stats().writebacks, 0u);
    EXPECT_EQ(llc.stats().invalidations, 1u);
}

TEST(Llc, InvalidateMissIsNoop)
{
    Llc llc = makeSmall();
    llc.invalidateBlock(addrOf(4, 0));
    EXPECT_EQ(llc.stats().invalidations, 0u);
}

TEST(Llc, MemReadsCountDemandFills)
{
    Llc llc = makeSmall();
    llc.cpuRead(addrOf(0, 0), 0);
    llc.cpuRead(addrOf(0, 0), 1);
    llc.cpuWrite(addrOf(0, 1), 2);
    EXPECT_EQ(llc.stats().memReads, 2u);
}

TEST(Llc, IoWritesBypassMemReads)
{
    Llc llc = makeSmall();
    llc.ioWrite(addrOf(0, 0), 0);
    EXPECT_EQ(llc.stats().memReads, 0u);
}

TEST(Llc, FlushAllEmptiesCache)
{
    Llc llc = makeSmall();
    for (unsigned i = 0; i < 16; ++i)
        llc.cpuRead(addrOf(i, 0), i);
    llc.flushAll();
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_FALSE(llc.contains(addrOf(i, 0)));
}

TEST(Llc, ValidCountTracksOccupancy)
{
    Llc llc = makeSmall(4);
    const std::size_t gset = llc.globalSet(addrOf(6, 0));
    EXPECT_EQ(llc.validCount(gset), 0u);
    llc.cpuRead(addrOf(6, 0), 0);
    llc.cpuRead(addrOf(6, 1), 1);
    EXPECT_EQ(llc.validCount(gset), 2u);
}

TEST(Llc, ClearStatsKeepsContents)
{
    Llc llc = makeSmall();
    llc.cpuRead(addrOf(0, 0), 0);
    llc.clearStats();
    EXPECT_EQ(llc.stats().cpuReads, 0u);
    EXPECT_TRUE(llc.contains(addrOf(0, 0)));
}

TEST(Llc, StatsConservation)
{
    // Random traffic: misses == fills; every eviction is attributed.
    Llc llc = makeSmall(4, 2);
    Rng rng(7);
    for (int t = 0; t < 20000; ++t) {
        const Addr a = addrOf(static_cast<unsigned>(rng.nextBounded(64)),
                              static_cast<unsigned>(rng.nextBounded(8)));
        const unsigned op = static_cast<unsigned>(rng.nextBounded(3));
        if (op == 0)
            llc.cpuRead(a, static_cast<Cycles>(t));
        else if (op == 1)
            llc.cpuWrite(a, static_cast<Cycles>(t));
        else
            llc.ioWrite(a, static_cast<Cycles>(t));
    }
    const LlcStats &s = llc.stats();
    EXPECT_EQ(s.memReads, s.cpuReadMisses + s.cpuWriteMisses);
    EXPECT_EQ(s.ioWrites, s.ioWriteHits + s.ioAllocations);
    // Occupancy never exceeds ways.
    for (std::size_t g = 0; g < 64; ++g) {
        EXPECT_LE(llc.validCount(g), 4u);
        EXPECT_LE(llc.ioCount(g), llc.validCount(g));
    }
}

TEST(Llc, LargestTagRoundTrips)
{
    // makeSmall: 6 offset + 6 set-index bits, so the tag starts at bit
    // 12 and 0xfffffffe is the largest tag below the invalid sentinel.
    Llc llc = makeSmall();
    const Addr top = (Addr(0xfffffffe) << 12) + addrOf(9, 0);
    EXPECT_FALSE(llc.cpuRead(top, 0));
    EXPECT_TRUE(llc.contains(top));
    EXPECT_FALSE(llc.contains(top - (Addr(1) << 12)));
    EXPECT_TRUE(llc.cpuRead(top, 1));
}

TEST(LlcDeath, TagReachingSentinelPanics)
{
    Llc llc = makeSmall();
    EXPECT_DEATH(llc.cpuRead(Addr(0xffffffff) << 12, 0),
                 "^panic: Llc: physical address 0x[0-9a-f]+ has a tag "
                 "that reaches the invalid-line sentinel\n$");
    EXPECT_DEATH(llc.ioWrite(Addr(1) << 50, 0), "sentinel");
}

TEST(LlcDeath, NonPowerOfTwoSetsFatal)
{
    LlcConfig cfg;
    cfg.geom = Geometry{1, 48, 4};
    EXPECT_EXIT(Llc(cfg, std::make_unique<IdentitySliceHash>(1, 0)),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(LlcDeath, MismatchedHashFatal)
{
    LlcConfig cfg;
    cfg.geom = Geometry{2, 64, 4};
    EXPECT_EXIT(Llc(cfg, std::make_unique<IdentitySliceHash>(4, 12)),
                ::testing::ExitedWithCode(1), "slice");
}

TEST(LlcDeath, BadDdioWaysFatal)
{
    LlcConfig cfg;
    cfg.geom = Geometry{1, 64, 4};
    cfg.ddioWays = 5;
    EXPECT_EXIT(Llc(cfg, std::make_unique<IdentitySliceHash>(1, 0)),
                ::testing::ExitedWithCode(1), "ddioWays");
}
