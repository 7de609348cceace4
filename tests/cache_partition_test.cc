/**
 * @file
 * Tests for the Sec. VII adaptive I/O cache partitioning defense,
 * including its core guarantee as a property test: with the defense
 * on, an incoming packet can never evict a CPU line.
 */

#include <gtest/gtest.h>

#include <string>

#include "cache/llc.hh"
#include "sim/rng.hh"

using namespace pktchase;
using namespace pktchase::cache;

namespace
{

LlcConfig
partitionConfig(unsigned ways = 8)
{
    LlcConfig cfg;
    cfg.geom = Geometry{1, 64, ways};
    cfg.ioLinesMin = 1;
    cfg.ioLinesMax = 3;
    cfg.ioLinesInit = 2;
    cfg.adaptPeriod = 10000;
    cfg.tHigh = 5000;
    cfg.tLow = 2000;
    return cfg;
}

Llc
makePartitioned(unsigned ways = 8)
{
    return Llc(partitionConfig(ways),
               std::make_unique<IdentitySliceHash>(1, 0),
               std::make_unique<AdaptivePartitionPolicy>());
}

Addr
addrOf(unsigned set, unsigned i)
{
    return (Addr(i) * 64 + set) * blockBytes;
}

/** NoDdio, Ddio, DdioWays(3) or the adaptive partition, by @p kind. */
std::unique_ptr<InjectionPolicy>
makePolicy(int kind)
{
    switch (kind) {
      case 0:
        return std::make_unique<NoDdioPolicy>();
      case 1:
        return std::make_unique<DdioPolicy>();
      case 2:
        return std::make_unique<DdioWaysPolicy>(3);
    }
    return std::make_unique<AdaptivePartitionPolicy>();
}

/** Every per-set count matches a recount over the blocks that can map
 *  to set @p set: the blocks addrOf(set, 0..9) the traffic draws from. */
void
expectCountsMatchRecount(const Llc &llc, unsigned set)
{
    unsigned valid = 0, io = 0;
    for (unsigned i = 0; i < 10; ++i) {
        valid += llc.contains(addrOf(set, i));
        io += llc.containsIoLine(addrOf(set, i));
    }
    const std::size_t g = llc.globalSet(addrOf(set, 0));
    ASSERT_EQ(llc.validCount(g), valid) << "set " << set;
    ASSERT_EQ(llc.ioCount(g), io) << "set " << set;
}

} // namespace

TEST(Partition, InitialPartitionSize)
{
    Llc llc = makePartitioned();
    EXPECT_EQ(llc.ioPartitionSize(0), 2u);
}

TEST(Partition, IoNeverEvictsCpuDirected)
{
    Llc llc = makePartitioned(4);
    // Fill the CPU quota (4 - 2 = 2 lines).
    llc.cpuRead(addrOf(0, 0), 0);
    llc.cpuRead(addrOf(0, 1), 1);
    // Flood with I/O: CPU lines must survive.
    for (unsigned i = 0; i < 16; ++i)
        llc.ioWrite(addrOf(0, 100 + i), 2 + i);
    EXPECT_TRUE(llc.contains(addrOf(0, 0)));
    EXPECT_TRUE(llc.contains(addrOf(0, 1)));
    EXPECT_EQ(llc.stats().cpuEvictedByIo, 0u);
}

TEST(Partition, CpuNeverEvictsIoWithinBound)
{
    Llc llc = makePartitioned(4);
    llc.ioWrite(addrOf(0, 100), 0);
    llc.ioWrite(addrOf(0, 101), 1);
    // CPU flood: the two I/O lines stay (partition reserved).
    for (unsigned i = 0; i < 16; ++i)
        llc.cpuRead(addrOf(0, i), 2 + i);
    EXPECT_EQ(llc.stats().ioEvictedByCpu, 0u);
    EXPECT_EQ(llc.ioCount(0), 2u);
}

TEST(Partition, CpuQuotaEnforced)
{
    Llc llc = makePartitioned(8); // quota = 8 - 2 = 6
    for (unsigned i = 0; i < 12; ++i)
        llc.cpuRead(addrOf(0, i), i);
    const std::size_t gset = llc.globalSet(addrOf(0, 0));
    EXPECT_LE(llc.validCount(gset) - llc.ioCount(gset), 6u);
    EXPECT_GT(llc.stats().cpuEvictedByCpu, 0u);
}

TEST(Partition, GrowsUnderSustainedIo)
{
    Llc llc = makePartitioned();
    // Keep I/O present across many adaptation periods.
    Cycles t = 0;
    for (int p = 0; p < 20; ++p) {
        for (int k = 0; k < 10; ++k) {
            llc.ioWrite(addrOf(0, 100 + (k % 3)), t);
            t += 1000;
        }
    }
    EXPECT_EQ(llc.ioPartitionSize(0), 3u);
}

TEST(Partition, ShrinksWhenIoIdle)
{
    Llc llc = makePartitioned();
    // One burst, then CPU-only traffic with the I/O line aging out.
    llc.ioWrite(addrOf(0, 100), 0);
    Cycles t = 1000;
    // CPU traffic elsewhere advances this set's clock only when it is
    // touched; touch it with CPU reads. The I/O line stays valid, so
    // presence remains 1 -- shrink requires the I/O line to leave.
    // Evict it via partition shrink: first starve its presence by
    // invalidating (DMA snoop from a non-DDIO write).
    llc.invalidateBlock(addrOf(0, 100));
    for (int p = 0; p < 10; ++p) {
        t += 10000;
        llc.cpuRead(addrOf(0, p % 4), t);
    }
    EXPECT_EQ(llc.ioPartitionSize(llc.globalSet(addrOf(0, 0))),
              1u);
}

TEST(Partition, ShrinkInvalidatesExcessIoLines)
{
    Llc llc = makePartitioned();
    Cycles t = 0;
    // Grow to 3 with sustained I/O.
    for (int p = 0; p < 30; ++p) {
        llc.ioWrite(addrOf(0, 100 + (p % 3)), t);
        t += 3000;
    }
    ASSERT_EQ(llc.ioPartitionSize(0), 3u);
    ASSERT_EQ(llc.ioCount(0), 3u);
    // Starve I/O presence: invalidate all I/O lines, let periods pass.
    for (unsigned k = 0; k < 3; ++k)
        llc.invalidateBlock(addrOf(0, 100 + k));
    for (int p = 0; p < 10; ++p) {
        t += 10000;
        llc.cpuRead(addrOf(0, 0), t);
    }
    EXPECT_EQ(llc.ioPartitionSize(0), 1u);
    EXPECT_LE(llc.ioCount(0), 1u);
}

TEST(Partition, DmaHitOnCpuLineReallocatesIntoPartition)
{
    Llc llc = makePartitioned(4);
    llc.cpuRead(addrOf(0, 0), 0);
    // DMA overwrites a block the CPU has cached: the defense must not
    // let the line morph in place (that would exceed the bound).
    llc.ioWrite(addrOf(0, 0), 1);
    EXPECT_TRUE(llc.containsIoLine(addrOf(0, 0)));
    EXPECT_LE(llc.ioCount(0), llc.ioPartitionSize(0));
}

TEST(Partition, PropertyIoNeverEvictsCpuUnderRandomTraffic)
{
    // The paper's guarantee, as a randomized invariant sweep, plus the
    // per-set valid and I/O counts under every injection policy. Six
    // ways is not a multiple of four, so the tag stride is padded.
    for (unsigned ways : {8u, 6u}) {
        for (int kind = 0; kind < 4; ++kind) {
            for (std::uint64_t seed = 1; seed <= 5; ++seed) {
                Llc llc(partitionConfig(ways),
                        std::make_unique<IdentitySliceHash>(1, 0),
                        makePolicy(kind));
                const std::string where = llc.injectionPolicy().name() +
                    " ways " + std::to_string(ways) + " seed " +
                    std::to_string(seed);
                Rng rng(seed);
                Cycles t = 0;
                for (int op = 0; op < 20000; ++op) {
                    const auto set =
                        static_cast<unsigned>(rng.nextBounded(64));
                    const Addr a = addrOf(
                        set, static_cast<unsigned>(rng.nextBounded(10)));
                    t += rng.nextBounded(2000);
                    if (rng.nextBounded(2000) == 0) {
                        llc.flushAll();
                        for (unsigned s = 0; s < 64; ++s)
                            expectCountsMatchRecount(llc, s);
                        continue;
                    }
                    switch (rng.nextBounded(4)) {
                      case 0:
                        llc.cpuRead(a, t);
                        break;
                      case 1:
                        llc.cpuWrite(a, t);
                        break;
                      case 2:
                        llc.ioWrite(a, t);
                        break;
                      default:
                        llc.invalidateBlock(a);
                        break;
                    }
                    // An access or invalidation changes only its own set.
                    expectCountsMatchRecount(llc, set);
                    if (HasFatalFailure())
                        FAIL() << where << " op " << op;
                }
                for (unsigned s = 0; s < 64; ++s)
                    expectCountsMatchRecount(llc, s);
                if (!llc.injectionPolicy().partitioned())
                    continue;
                EXPECT_EQ(llc.stats().cpuEvictedByIo, 0u)
                    << "defense leaked: " << where;
                EXPECT_EQ(llc.stats().ioEvictedByCpu, 0u) << where;
                // Partition bounds hold in every set.
                for (std::size_t g = 0; g < 64; ++g) {
                    EXPECT_LE(llc.ioCount(g), llc.ioPartitionSize(g))
                        << where;
                    EXPECT_LE(llc.validCount(g) - llc.ioCount(g),
                              ways - llc.ioPartitionSize(g))
                        << where;
                }
            }
        }
    }
}

TEST(Partition, AdaptationCountersAdvance)
{
    Llc llc = makePartitioned();
    llc.cpuRead(addrOf(0, 0), 0);
    llc.cpuRead(addrOf(0, 0), 500000);
    EXPECT_GT(llc.stats().partitionAdaptations, 0u);
}

TEST(Partition, LongIdleGapHandledInConstantTime)
{
    // The lazy catch-up must fast-forward over huge gaps (regression
    // guard for the saturation shortcut).
    Llc llc = makePartitioned();
    llc.cpuRead(addrOf(0, 0), 0);
    llc.cpuRead(addrOf(0, 0), 3'300'000'000ull); // one second later
    EXPECT_TRUE(llc.contains(addrOf(0, 0)));
}

TEST(PartitionDeath, BadBoundsFatal)
{
    LlcConfig cfg = partitionConfig();
    cfg.ioLinesMin = 0;
    EXPECT_EXIT(Llc(cfg, std::make_unique<IdentitySliceHash>(1, 0),
                    std::make_unique<AdaptivePartitionPolicy>()),
                ::testing::ExitedWithCode(1), "partition");
}

TEST(PartitionDeath, InitOutsideBoundsFatal)
{
    LlcConfig cfg = partitionConfig();
    cfg.ioLinesInit = 5;
    EXPECT_EXIT(Llc(cfg, std::make_unique<IdentitySliceHash>(1, 0),
                    std::make_unique<AdaptivePartitionPolicy>()),
                ::testing::ExitedWithCode(1), "ioLinesInit");
}
