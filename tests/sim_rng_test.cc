/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "sim/rng.hh"

using namespace pktchase;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 5u);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000000007ull}) {
        for (int i = 0; i < 2000; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedOneAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, BoundedCoversAllResidues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(13);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoolRespectsProbabilityRoughly)
{
    Rng rng(19);
    int trues = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        trues += rng.nextBool(0.25);
    EXPECT_NEAR(static_cast<double>(trues) / n, 0.25, 0.01);
}

TEST(Rng, BoolExtremes)
{
    Rng rng(21);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(23);
    const int n = 200000;
    double sum = 0, sq = 0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(25);
    const int n = 100000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.nextGaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(27);
    const int n = 200000;
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ZipfInRangeAndSkewed)
{
    Rng rng(29);
    const std::uint64_t n = 1000;
    std::vector<unsigned> counts(n, 0);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t k = rng.nextZipf(n, 1.0);
        ASSERT_LT(k, n);
        ++counts[k];
    }
    // Rank 0 must dominate the tail under any Zipf-like law.
    EXPECT_GT(counts[0], counts[n - 1] * 5);
    EXPECT_GT(counts[0], counts[100]);
}

namespace
{

/**
 * nextZipf's closed form on the 53-bit draw @p r, recomputing the
 * normalizer every time.
 */
std::uint64_t
zipfClosedForm(std::uint64_t r, std::uint64_t n, double s)
{
    const double u = 1.0 - static_cast<double>(r) * 0x1.0p-53;
    if (s == 1.0) {
        const double hn = std::log(static_cast<double>(n) + 1.0);
        const double x = std::exp(u * hn) - 1.0;
        return std::min(static_cast<std::uint64_t>(x), n - 1);
    }
    const double oneMinusS = 1.0 - s;
    const double hn =
        (std::pow(static_cast<double>(n) + 1.0, oneMinusS) - 1.0) /
        oneMinusS;
    const double x =
        std::pow(u * hn * oneMinusS + 1.0, 1.0 / oneMinusS) - 1.0;
    return std::min(static_cast<std::uint64_t>(x), n - 1);
}

/** The same on the generator's next 53-bit draw, as nextZipf takes it. */
std::uint64_t
zipfClosedForm(Rng &rng, std::uint64_t n, double s)
{
    return zipfClosedForm(rng.next() >> 11, n, s);
}

} // namespace

TEST(Rng, ZipfMatchesClosedFormAcrossParameterChanges)
{
    // Runs of one (n, s) and switches between them, so the memoized
    // normalizer is both reused and replaced.
    const struct { std::uint64_t n; double s; } dists[] = {
        {4800, 0.6}, {1000, 0.9}, {1000, 1.0}};
    const int pattern[] = {0, 0, 1, 0, 1, 1, 1, 2, 0, 2};
    Rng rng(41), ref(41);
    for (int i = 0; i < 30000; ++i) {
        const auto &d = dists[pattern[i % 10]];
        ASSERT_EQ(rng.nextZipf(d.n, d.s), zipfClosedForm(ref, d.n, d.s))
            << "draw " << i << " n=" << d.n << " s=" << d.s;
    }
}

TEST(ZipfTable, MatchesNextZipfDrawForDraw)
{
    const struct { std::uint64_t n; double s; } dists[] = {
        {4800, 0.6}, {1000, 0.9}, {1000, 1.0},
        {1, 0.6},    {500, 1.2},  {4800, 0.0}};
    for (const auto &d : dists) {
        const ZipfTable table(d.n, d.s);
        Rng rng(43), ref(43);
        for (int i = 0; i < 1000000; ++i) {
            ASSERT_EQ(rng.nextZipf(table), ref.nextZipf(d.n, d.s))
                << "draw " << i << " n=" << d.n << " s=" << d.s;
        }
        // One next() per draw on both paths: the streams stay aligned.
        EXPECT_EQ(rng.next(), ref.next()) << "n=" << d.n << " s=" << d.s;
    }
}

TEST(ZipfTable, MatchesClosedFormAroundEveryThreshold)
{
    // The table is exact only if its thresholds are the closed form's:
    // bisect the reference for the first draw ranked below k, and check
    // the 64 draws on either side of it.
    constexpr std::int64_t kDraws = std::int64_t{1} << 53;
    const struct { std::uint64_t n; double s; } dists[] = {
        {4800, 0.6}, {1000, 0.9}, {1000, 1.0}};
    for (const auto &d : dists) {
        const ZipfTable table(d.n, d.s);
        std::uint64_t checked = 0;
        for (std::uint64_t k = 1; k < d.n; ++k) {
            std::int64_t lo = -1, hi = kDraws;
            while (hi - lo > 1) {
                const std::int64_t mid = lo + (hi - lo) / 2;
                if (zipfClosedForm(static_cast<std::uint64_t>(mid), d.n,
                                   d.s) < k)
                    hi = mid;
                else
                    lo = mid;
            }
            ASSERT_LT(hi, kDraws) << "no draw ranked below " << k;
            const std::int64_t first = std::max<std::int64_t>(hi - 64, 0);
            const std::int64_t last = std::min(hi + 64, kDraws - 1);
            for (std::int64_t r = first; r <= last; ++r) {
                const auto draw = static_cast<std::uint64_t>(r);
                ASSERT_EQ(table.rank(draw), zipfClosedForm(draw, d.n, d.s))
                    << "draw " << r << " threshold " << k << " n=" << d.n
                    << " s=" << d.s;
                ++checked;
            }
        }
        EXPECT_EQ(checked, (d.n - 1) * 129) << "n=" << d.n << " s=" << d.s;
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(31);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto sorted = v;
    rng.shuffle(v);
    auto copy = v;
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, sorted);
}

TEST(Rng, ShuffleChangesOrderEventually)
{
    Rng rng(33);
    std::vector<int> v(50);
    std::iota(v.begin(), v.end(), 0);
    const auto orig = v;
    rng.shuffle(v);
    EXPECT_NE(v, orig);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(35);
    Rng child = a.split();
    unsigned same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == child.next())
            ++same;
    EXPECT_LT(same, 5u);
}

TEST(RngDeath, BoundedZeroPanics)
{
    Rng rng(37);
    EXPECT_DEATH(rng.nextBounded(0), "bound");
}

TEST(RngDeath, RangeInvertedPanics)
{
    Rng rng(39);
    EXPECT_DEATH(rng.nextRange(5, 4), "lo > hi");
}

TEST(RngDeath, ZipfTableOutOfRangeNPanics)
{
    EXPECT_DEATH(ZipfTable(0, 0.6), "n > 0");
    // A guide entry holds ranks up to 2^32 - 1.
    EXPECT_DEATH(ZipfTable((std::uint64_t{1} << 32) + 1, 0.6), "2\\^32");
}
