#include "stats.hh"

#include <cmath>

#include "logging.hh"

namespace pktchase
{

std::size_t
longestMismatchRun(const std::vector<int> &a, const std::vector<int> &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();

    // Needleman-Wunsch style alignment with unit costs, tracking the
    // operations so we can walk the aligned strings afterwards.
    std::vector<std::vector<std::size_t>> d(n + 1,
        std::vector<std::size_t>(m + 1, 0));
    for (std::size_t i = 0; i <= n; ++i)
        d[i][0] = i;
    for (std::size_t j = 0; j <= m; ++j)
        d[0][j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub = (a[i - 1] == b[j - 1]) ? 0 : 1;
            d[i][j] = std::min({d[i - 1][j] + 1,
                                d[i][j - 1] + 1,
                                d[i - 1][j - 1] + sub});
        }
    }

    // Walk back, recording match (0) / mismatch (1) per aligned column.
    std::vector<unsigned> mismatch;
    std::size_t i = n, j = m;
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0 &&
            d[i][j] == d[i - 1][j - 1] + ((a[i - 1] == b[j - 1]) ? 0 : 1)) {
            mismatch.push_back(a[i - 1] == b[j - 1] ? 0 : 1);
            --i;
            --j;
        } else if (i > 0 && d[i][j] == d[i - 1][j] + 1) {
            mismatch.push_back(1);
            --i;
        } else {
            mismatch.push_back(1);
            --j;
        }
    }

    std::size_t best = 0, run = 0;
    for (unsigned mm : mismatch) {
        run = mm ? run + 1 : 0;
        best = std::max(best, run);
    }
    return best;
}

EditOps
editOperations(const std::vector<unsigned> &sent,
               const std::vector<unsigned> &received)
{
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    std::vector<std::vector<std::size_t>> d(
        n + 1, std::vector<std::size_t>(m + 1, 0));
    for (std::size_t i = 0; i <= n; ++i)
        d[i][0] = i;
    for (std::size_t j = 0; j <= m; ++j)
        d[0][j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                (sent[i - 1] == received[j - 1]) ? 0 : 1;
            d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                                d[i - 1][j - 1] + sub});
        }
    }

    EditOps ops;
    std::size_t i = n, j = m;
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0 &&
            d[i][j] == d[i - 1][j - 1] +
                ((sent[i - 1] == received[j - 1]) ? 0 : 1)) {
            if (sent[i - 1] == received[j - 1])
                ++ops.matches;
            else
                ++ops.substitutions;
            --i;
            --j;
        } else if (i > 0 && d[i][j] == d[i - 1][j] + 1) {
            ++ops.deletions;
            --i;
        } else {
            ++ops.insertions;
            --j;
        }
    }
    return ops;
}

Summary
summarize(const std::vector<double> &samples)
{
    Summary s;
    s.count = samples.size();
    if (samples.empty())
        return s;

    double sum = 0.0;
    s.min = samples.front();
    s.max = samples.front();
    for (double v : samples) {
        sum += v;
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
    }
    s.mean = sum / static_cast<double>(s.count);

    double sq = 0.0;
    for (double v : samples) {
        const double d = v - s.mean;
        sq += d * d;
    }
    s.stddev = (s.count > 1)
        ? std::sqrt(sq / static_cast<double>(s.count - 1))
        : 0.0;

    const double half = (s.count > 1)
        ? 1.96 * s.stddev / std::sqrt(static_cast<double>(s.count))
        : 0.0;
    s.ciLow = s.mean - half;
    s.ciHigh = s.mean + half;
    return s;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        panic("percentile of empty sample");
    if (p < 0.0 || p > 100.0)
        panic("percentile p out of range");
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1)
        return samples[0];
    const double rank =
        (p / 100.0) * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() != y.size() || x.size() < 2)
        return 0.0;
    const auto n = static_cast<double>(x.size());
    double sx = 0, sy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
    }
    const double mx = sx / n, my = sy / n;
    double num = 0, dx = 0, dy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double a = x[i] - mx;
        const double b = y[i] - my;
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    if (dx <= 0.0 || dy <= 0.0)
        return 0.0;
    return num / std::sqrt(dx * dy);
}

double
maxCrossCorrelation(const std::vector<double> &x,
                    const std::vector<double> &y,
                    int max_lag)
{
    if (x.empty() || y.empty())
        return 0.0;
    double best = -1.0;
    for (int lag = -max_lag; lag <= max_lag; ++lag) {
        // Overlap x[i] with y[i + lag].
        std::vector<double> xs, ys;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const std::int64_t j = static_cast<std::int64_t>(i) + lag;
            if (j < 0 || j >= static_cast<std::int64_t>(y.size()))
                continue;
            xs.push_back(x[i]);
            ys.push_back(y[static_cast<std::size_t>(j)]);
        }
        best = std::max(best, pearson(xs, ys));
    }
    return best;
}

double
shannonEntropyBits(const std::vector<double> &counts)
{
    double total = 0.0;
    for (double c : counts)
        if (c > 0.0)
            total += c;
    if (total <= 0.0)
        return 0.0;
    double h = 0.0;
    for (double c : counts) {
        if (c <= 0.0)
            continue;
        const double p = c / total;
        h -= p * std::log2(p);
    }
    return h;
}

double
normalizedShannonEntropy(const std::vector<double> &counts)
{
    double total = 0.0;
    for (double c : counts)
        if (c > 0.0)
            total += c;
    if (total <= 0.0 || counts.size() < 2)
        return 1.0;
    return shannonEntropyBits(counts) /
        std::log2(static_cast<double>(counts.size()));
}

} // namespace pktchase
