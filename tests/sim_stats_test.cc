/**
 * @file
 * Tests for the statistics utilities, including metric axioms for the
 * Levenshtein distance the evaluation depends on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace pktchase;

namespace
{

std::vector<int>
randomSeq(Rng &rng, std::size_t len, int alphabet)
{
    std::vector<int> v(len);
    for (auto &x : v)
        x = static_cast<int>(rng.nextBounded(alphabet));
    return v;
}

} // namespace

TEST(Levenshtein, KnownCases)
{
    const std::string kitten = "kitten", sitting = "sitting";
    EXPECT_EQ(levenshtein(kitten, sitting), 3u);
    EXPECT_EQ(levenshtein(std::string("flaw"), std::string("lawn")), 2u);
    EXPECT_EQ(levenshtein(std::string(""), std::string("abc")), 3u);
    EXPECT_EQ(levenshtein(std::string("abc"), std::string("")), 3u);
    EXPECT_EQ(levenshtein(std::string("abc"), std::string("abc")), 0u);
}

TEST(Levenshtein, IdentityOfIndiscernibles)
{
    Rng rng(1);
    for (int t = 0; t < 50; ++t) {
        const auto a = randomSeq(rng, rng.nextBounded(30), 4);
        EXPECT_EQ(levenshtein(a, a), 0u);
    }
}

TEST(Levenshtein, Symmetry)
{
    Rng rng(2);
    for (int t = 0; t < 50; ++t) {
        const auto a = randomSeq(rng, rng.nextBounded(25), 4);
        const auto b = randomSeq(rng, rng.nextBounded(25), 4);
        EXPECT_EQ(levenshtein(a, b), levenshtein(b, a));
    }
}

TEST(Levenshtein, TriangleInequality)
{
    Rng rng(3);
    for (int t = 0; t < 50; ++t) {
        const auto a = randomSeq(rng, rng.nextBounded(20), 3);
        const auto b = randomSeq(rng, rng.nextBounded(20), 3);
        const auto c = randomSeq(rng, rng.nextBounded(20), 3);
        EXPECT_LE(levenshtein(a, c),
                  levenshtein(a, b) + levenshtein(b, c));
    }
}

TEST(Levenshtein, BoundedByLongerLength)
{
    Rng rng(4);
    for (int t = 0; t < 50; ++t) {
        const auto a = randomSeq(rng, rng.nextBounded(30), 4);
        const auto b = randomSeq(rng, rng.nextBounded(30), 4);
        EXPECT_LE(levenshtein(a, b), std::max(a.size(), b.size()));
        EXPECT_GE(levenshtein(a, b),
                  std::max(a.size(), b.size()) -
                      std::min(a.size(), b.size()));
    }
}

TEST(Levenshtein, SingleEditCostsOne)
{
    std::vector<int> a{1, 2, 3, 4, 5};
    std::vector<int> sub{1, 2, 9, 4, 5};
    std::vector<int> ins{1, 2, 3, 9, 4, 5};
    std::vector<int> del{1, 2, 4, 5};
    EXPECT_EQ(levenshtein(a, sub), 1u);
    EXPECT_EQ(levenshtein(a, ins), 1u);
    EXPECT_EQ(levenshtein(a, del), 1u);
}

TEST(CyclicLevenshtein, RotationInvariant)
{
    Rng rng(5);
    for (int t = 0; t < 20; ++t) {
        auto a = randomSeq(rng, 12 + rng.nextBounded(8), 5);
        auto rotated = a;
        std::rotate(rotated.begin(),
                    rotated.begin() +
                        static_cast<std::ptrdiff_t>(
                            rng.nextBounded(a.size())),
                    rotated.end());
        EXPECT_EQ(cyclicLevenshtein(rotated, a), 0u);
    }
}

TEST(CyclicLevenshtein, AtMostLinear)
{
    std::vector<int> a{1, 2, 3, 4};
    std::vector<int> b{4, 3, 2, 1};
    EXPECT_LE(cyclicLevenshtein(a, b), levenshtein(a, b));
}

TEST(LongestMismatchRun, IdenticalIsZero)
{
    std::vector<int> a{1, 2, 3};
    EXPECT_EQ(longestMismatchRun(a, a), 0u);
}

TEST(LongestMismatchRun, SingleSubstitution)
{
    std::vector<int> a{1, 2, 3, 4, 5};
    std::vector<int> b{1, 2, 9, 4, 5};
    EXPECT_EQ(longestMismatchRun(a, b), 1u);
}

TEST(LongestMismatchRun, ContiguousBlock)
{
    std::vector<int> a{1, 2, 3, 4, 5, 6, 7};
    std::vector<int> b{1, 9, 9, 9, 5, 6, 7};
    EXPECT_EQ(longestMismatchRun(a, b), 3u);
}

TEST(Summary, BasicMoments)
{
    const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
    EXPECT_LT(s.ciLow, s.mean);
    EXPECT_GT(s.ciHigh, s.mean);
}

TEST(Summary, EmptyAndSingleton)
{
    EXPECT_EQ(summarize({}).count, 0u);
    const Summary s = summarize({7.0});
    EXPECT_DOUBLE_EQ(s.mean, 7.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.ciLow, 7.0);
}

TEST(Percentile, KnownValues)
{
    std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
}

TEST(Percentile, UnsortedInput)
{
    std::vector<double> v{9, 1, 5, 3, 7};
    EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
}

TEST(Percentile, Monotone)
{
    Rng rng(6);
    std::vector<double> v;
    for (int i = 0; i < 100; ++i)
        v.push_back(rng.nextDouble() * 100);
    double prev = percentile(v, 0);
    for (double p = 5; p <= 100; p += 5) {
        const double cur = percentile(v, p);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

TEST(PercentileDeath, EmptyPanics)
{
    EXPECT_DEATH(percentile({}, 50), "empty");
}

TEST(Pearson, PerfectCorrelation)
{
    std::vector<double> x{1, 2, 3, 4};
    std::vector<double> y{2, 4, 6, 8};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> ny{8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, ny), -1.0, 1e-12);
}

TEST(Pearson, DegenerateIsZero)
{
    std::vector<double> x{1, 1, 1};
    std::vector<double> y{1, 2, 3};
    EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
    EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
}

TEST(MaxCrossCorrelation, FindsShiftedMatch)
{
    std::vector<double> x{0, 0, 1, 5, 1, 0, 0, 0, 2, 0};
    std::vector<double> y{0, 0, 0, 1, 5, 1, 0, 0, 0, 2};
    EXPECT_GT(maxCrossCorrelation(x, y, 3),
              maxCrossCorrelation(x, y, 0));
    EXPECT_NEAR(maxCrossCorrelation(x, x, 0), 1.0, 1e-12);
}
