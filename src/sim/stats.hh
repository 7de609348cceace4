/**
 * @file
 * Statistics utilities used throughout the evaluation harness.
 *
 * Includes the two metrics the paper relies on: Levenshtein (edit)
 * distance, used both to score recovered ring sequences against ground
 * truth (Table I) and to compute covert-channel error rates (Sec. IV),
 * and normalized cross-correlation, used by the website-fingerprinting
 * classifier (Sec. V).
 */

#ifndef PKTCHASE_SIM_STATS_HH
#define PKTCHASE_SIM_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pktchase
{

/**
 * Levenshtein distance between two sequences: the minimum number of
 * single-element insertions, deletions, or substitutions transforming
 * @p a into @p b. O(|a|*|b|) time, O(min) space.
 */
template <typename Seq>
std::size_t
levenshtein(const Seq &a, const Seq &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    if (n == 0)
        return m;
    if (m == 0)
        return n;

    std::vector<std::size_t> prev(m + 1), curr(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;

    for (std::size_t i = 1; i <= n; ++i) {
        curr[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
            curr[j] = std::min({prev[j] + 1,          // deletion
                                curr[j - 1] + 1,      // insertion
                                prev[j - 1] + sub_cost});
        }
        std::swap(prev, curr);
    }
    return prev[m];
}

/**
 * Levenshtein distance between two cyclic sequences, minimized over all
 * rotations of @p a. The recovered ring-buffer sequence has no defined
 * starting point, so Table I-style scoring must be rotation-invariant.
 */
template <typename Seq>
std::size_t
cyclicLevenshtein(const Seq &a, const Seq &b)
{
    if (a.empty() || b.empty())
        return levenshtein(a, b);
    std::size_t best = static_cast<std::size_t>(-1);
    Seq rotated = a;
    for (std::size_t r = 0; r < a.size(); ++r) {
        best = std::min(best, levenshtein(rotated, b));
        std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    }
    return best;
}

/**
 * Length of the longest run of positions that mismatch under the optimal
 * global alignment of @p a against @p b ("Longest Mismatch" in Table I).
 */
std::size_t longestMismatchRun(const std::vector<int> &a,
                               const std::vector<int> &b);

/**
 * Edit-operation breakdown of the optimal alignment of @p sent
 * against @p received: matches, substitutions (symbol errors on
 * synchronized pairs), deletions (sent elements never received), and
 * insertions (spurious receptions). Used to score covert channels the
 * way the paper does -- error rate on synchronized regions, loss
 * accounted separately.
 */
struct EditOps
{
    std::size_t matches = 0;
    std::size_t substitutions = 0;
    std::size_t deletions = 0;
    std::size_t insertions = 0;
};

EditOps editOperations(const std::vector<unsigned> &sent,
                       const std::vector<unsigned> &received);

/** Summary statistics over a sample of doubles. */
struct Summary
{
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double ciLow = 0.0;   ///< 95% confidence interval, lower bound
    double ciHigh = 0.0;  ///< 95% confidence interval, upper bound
};

/** Compute Summary statistics for a sample. */
Summary summarize(const std::vector<double> &samples);

/**
 * Shannon entropy, in bits, of the distribution described by a
 * histogram of nonnegative counts. Zero counts contribute nothing;
 * zero total mass yields 0. The numeric kernel behind the
 * entropy-drop detector's cross-queue recycle entropy.
 */
double shannonEntropyBits(const std::vector<double> &counts);

/**
 * shannonEntropyBits normalized by the histogram's maximum
 * (log2(bins)), in [0, 1]; degenerate histograms (fewer than two
 * bins, or no mass) yield 1 -- "as spread out as possible".
 */
double normalizedShannonEntropy(const std::vector<double> &counts);

/**
 * Percentile of a sample using linear interpolation between order
 * statistics. @p p is in [0, 100].
 */
double percentile(std::vector<double> samples, double p);

/**
 * Normalized cross-correlation of two equal-meaning series at zero lag,
 * maximized over lags in [-maxLag, maxLag]. Returns a value in [-1, 1];
 * series shorter than 2 after alignment yield 0.
 */
double maxCrossCorrelation(const std::vector<double> &x,
                           const std::vector<double> &y,
                           int max_lag);

/** Pearson correlation of two equal-length series (0 if degenerate). */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

} // namespace pktchase

#endif // PKTCHASE_SIM_STATS_HH
