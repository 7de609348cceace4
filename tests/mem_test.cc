/**
 * @file
 * Tests for the physical memory and address-space substrate.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/address_space.hh"
#include "mem/phys_mem.hh"

using namespace pktchase;
using namespace pktchase::mem;

TEST(PhysMem, FramesArePageAlignedAndUnique)
{
    PhysMem pm(Addr(4) << 20, Rng(1));
    std::set<Addr> seen;
    for (int i = 0; i < 100; ++i) {
        const Addr f = pm.allocFrame(Owner::Kernel);
        EXPECT_EQ(f % pageBytes, 0u);
        EXPECT_TRUE(seen.insert(f).second);
    }
}

TEST(PhysMem, AllocationOrderIsRandomized)
{
    PhysMem pm(Addr(4) << 20, Rng(2));
    // Sequential allocations should not be physically sequential.
    Addr prev = pm.allocFrame(Owner::Kernel);
    unsigned sequential = 0;
    for (int i = 0; i < 50; ++i) {
        const Addr f = pm.allocFrame(Owner::Kernel);
        if (f == prev + pageBytes)
            ++sequential;
        prev = f;
    }
    EXPECT_LT(sequential, 5u);
}

TEST(PhysMem, OwnerTracking)
{
    PhysMem pm(Addr(1) << 20, Rng(3));
    const Addr k = pm.allocFrame(Owner::Kernel);
    const Addr a = pm.allocFrame(Owner::Attacker);
    EXPECT_EQ(pm.ownerOf(k), Owner::Kernel);
    EXPECT_EQ(pm.ownerOf(a + 100), Owner::Attacker);
}

TEST(PhysMem, FreeReturnsCapacity)
{
    PhysMem pm(Addr(1) << 20, Rng(4));
    const std::size_t before = pm.freeFrames();
    const Addr f = pm.allocFrame(Owner::Other);
    EXPECT_EQ(pm.freeFrames(), before - 1);
    pm.freeFrame(f);
    EXPECT_EQ(pm.freeFrames(), before);
    EXPECT_EQ(pm.ownerOf(f), Owner::Free);
}

TEST(PhysMem, AllocFramesBatch)
{
    PhysMem pm(Addr(1) << 20, Rng(5));
    const auto frames = pm.allocFrames(16, Owner::Victim);
    EXPECT_EQ(frames.size(), 16u);
    std::set<Addr> uniq(frames.begin(), frames.end());
    EXPECT_EQ(uniq.size(), 16u);
}

TEST(PhysMem, CapacityAccounting)
{
    PhysMem pm(Addr(2) << 20, Rng(6));
    EXPECT_EQ(pm.totalFrames(), (Addr(2) << 20) / pageBytes);
    EXPECT_EQ(pm.bytes(), Addr(2) << 20);
}

TEST(PhysMemDeath, ExhaustionIsFatal)
{
    EXPECT_EXIT(
        {
            PhysMem pm(pageBytes, Rng(7));
            pm.allocFrame(Owner::Kernel);
            pm.allocFrame(Owner::Kernel);
        },
        ::testing::ExitedWithCode(1), "out of frames");
}

/** A batch larger than the free pool fails on one line before anything
 *  is reserved, so a huge ring.quarantine depth cannot abort the
 *  process in the vector's allocation. */
TEST(PhysMemDeath, OversizedBatchIsFatalBeforeReserving)
{
    PhysMem pm(Addr(1) << 20, Rng(7));
    EXPECT_EXIT(pm.allocFrames(1000000000000ull, Owner::Kernel),
                ::testing::ExitedWithCode(1),
                "^fatal: PhysMem out of frames[^\n]*\n$");
    EXPECT_EXIT(pm.allocFrames(4000000000000000000ull, Owner::Kernel),
                ::testing::ExitedWithCode(1),
                "^fatal: PhysMem out of frames[^\n]*\n$");
    EXPECT_EXIT(pm.allocFrames(257, Owner::Kernel),
                ::testing::ExitedWithCode(1), "out of frames");
    // The whole pool is still one valid batch.
    EXPECT_EQ(pm.allocFrames(256, Owner::Kernel).size(), 256u);
}

TEST(PhysMemDeath, DoubleFreePanics)
{
    PhysMem pm(Addr(1) << 20, Rng(8));
    const Addr f = pm.allocFrame(Owner::Kernel);
    pm.freeFrame(f);
    EXPECT_DEATH(pm.freeFrame(f), "double free");
}

TEST(PhysMemDeath, UnalignedFreePanics)
{
    PhysMem pm(Addr(1) << 20, Rng(9));
    const Addr f = pm.allocFrame(Owner::Kernel);
    EXPECT_DEATH(pm.freeFrame(f + 64), "unaligned");
}

TEST(PhysMemDeath, BadCapacityIsFatal)
{
    EXPECT_EXIT(PhysMem(100, Rng(10)), ::testing::ExitedWithCode(1),
                "multiple");
}

TEST(AddressSpace, TranslateRoundTrip)
{
    PhysMem pm(Addr(4) << 20, Rng(11));
    AddressSpace as(pm, Owner::Attacker);
    const Addr base = as.mmap(8);
    EXPECT_EQ(as.pageCount(), 8u);
    for (Addr p = 0; p < 8; ++p) {
        const Addr va = base + p * pageBytes + 123;
        const Addr pa = as.translate(va);
        EXPECT_EQ(pa % pageBytes, 123u);
        EXPECT_EQ(pm.ownerOf(pa), Owner::Attacker);
    }
}

TEST(AddressSpace, DistinctPagesDistinctFrames)
{
    PhysMem pm(Addr(4) << 20, Rng(12));
    AddressSpace as(pm, Owner::Victim);
    const Addr base = as.mmap(32);
    std::set<Addr> frames;
    for (Addr p = 0; p < 32; ++p)
        frames.insert(as.translate(base + p * pageBytes));
    EXPECT_EQ(frames.size(), 32u);
}

TEST(AddressSpace, SequentialMmapsDoNotOverlap)
{
    PhysMem pm(Addr(4) << 20, Rng(13));
    AddressSpace as(pm, Owner::Other);
    const Addr a = as.mmap(4);
    const Addr b = as.mmap(4);
    EXPECT_GE(b, a + 4 * pageBytes);
}

TEST(AddressSpace, MunmapFreesFrame)
{
    PhysMem pm(Addr(1) << 20, Rng(14));
    AddressSpace as(pm, Owner::Attacker);
    const Addr base = as.mmap(1);
    const std::size_t free_before = pm.freeFrames();
    as.munmapPage(base);
    EXPECT_EQ(pm.freeFrames(), free_before + 1);
    EXPECT_FALSE(as.mapped(base));
}

TEST(AddressSpace, MappedRejectsPagesOutsideTheMappedRange)
{
    PhysMem pm(Addr(1) << 20, Rng(16));
    AddressSpace as(pm, Owner::Victim);
    const Addr base = as.mmap(4);
    EXPECT_EQ(base / pageBytes, Addr(0x10000)); // the mmap base VPN
    EXPECT_TRUE(as.mapped(base));
    EXPECT_TRUE(as.mapped(base + 4 * pageBytes - 1));
    EXPECT_FALSE(as.mapped(base - 1));             // VPN 0xffff
    EXPECT_FALSE(as.mapped(0));
    EXPECT_FALSE(as.mapped(base + 4 * pageBytes)); // past the last page
    as.munmapPage(base + pageBytes);
    EXPECT_FALSE(as.mapped(base + pageBytes));
    EXPECT_TRUE(as.mapped(base + 2 * pageBytes));
    EXPECT_EQ(as.pageCount(), 3u);
}

TEST(AddressSpaceDeath, TranslateFaultPanics)
{
    PhysMem pm(Addr(1) << 20, Rng(15));
    AddressSpace as(pm, Owner::Attacker);
    EXPECT_DEATH(as.translate(0xDEAD000), "fault");
}

TEST(AddressSpaceDeath, TranslateOutsideTheMappedRangePanics)
{
    PhysMem pm(Addr(1) << 20, Rng(17));
    AddressSpace as(pm, Owner::Attacker);
    const Addr base = as.mmap(4);
    EXPECT_DEATH(as.translate(base - 1), "fault");
    EXPECT_DEATH(as.translate(base + 4 * pageBytes), "fault");
    as.munmapPage(base);
    EXPECT_DEATH(as.translate(base), "fault");
}

TEST(AddressSpaceDeath, DoubleMunmapPanics)
{
    PhysMem pm(Addr(1) << 20, Rng(18));
    AddressSpace as(pm, Owner::Attacker);
    const Addr base = as.mmap(2);
    as.munmapPage(base);
    EXPECT_DEATH(as.munmapPage(base), "unmapped");
    EXPECT_DEATH(as.munmapPage(base - pageBytes), "unmapped");
}
