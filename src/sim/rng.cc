#include "rng.hh"

#include <limits>

#include "logging.hh"

namespace pktchase
{

namespace
{

/** splitmix64 step, used to expand seeds into full generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** nextZipf draws r = next() >> 11, one of 2^53 values. */
constexpr std::uint64_t kZipfDraws = std::uint64_t{1} << 53;

/** Normalizer of the continuous Zipf CDF over [0, n] with exponent s. */
double
zipfNorm(std::uint64_t n, double s)
{
    const double oneMinusS = 1.0 - s;
    return s == 1.0
        ? std::log(static_cast<double>(n) + 1.0)
        : (std::pow(static_cast<double>(n) + 1.0, oneMinusS) - 1.0) /
            oneMinusS;
}

/**
 * nextZipf's closed form: the rank of the 53-bit draw @p r, given
 * hn = zipfNorm(n, s). Rejection-inversion sampling (Hormann &
 * Derflinger) is overkill for the workload model; a simple inverse-CDF
 * walk over a cached harmonic sum would be O(n) per draw, so we use the
 * standard approximation: invert the continuous Zipf CDF at
 * u = 1 - r / 2^53, then clamp.
 */
std::uint64_t
zipfRank(std::uint64_t r, std::uint64_t n, double s, double hn)
{
    const double u = 1.0 - static_cast<double>(r) * 0x1.0p-53; // (0, 1]
    double x = 0.0;
    if (s == 1.0) {
        x = std::exp(u * hn) - 1.0;
    } else {
        const double oneMinusS = 1.0 - s;
        x = std::pow(u * hn * oneMinusS + 1.0, 1.0 / oneMinusS) - 1.0;
    }
    return std::min(static_cast<std::uint64_t>(x), n - 1);
}

} // namespace

ZipfTable::ZipfTable(std::uint64_t n, double s)
{
    if (n == 0)
        panic("ZipfTable requires n > 0");
    if (n - 1 > std::numeric_limits<std::uint32_t>::max())
        panic("ZipfTable requires n <= 2^32");
    const double hn = zipfNorm(n, s);
    const auto below = [&](std::int64_t r, std::uint64_t k) {
        return zipfRank(static_cast<std::uint64_t>(r), n, s, hn) < k;
    };

    bound_.resize(n);
    bound_[0] = kZipfDraws;
    for (std::uint64_t k = 1; k < n; ++k) {
        // The first draw ranked below k lies in (lo, hi]: below() is
        // false at lo (or lo is -1) and true at hi, which starts at
        // the previous bound.
        std::int64_t lo = -1;
        auto hi = static_cast<std::int64_t>(bound_[k - 1]);
        if (hi > 0) {
            // Gallop out from the continuous inverse's estimate, which
            // lands within a few draws of the bound, then bisect.
            const double kp1 = static_cast<double>(k) + 1.0;
            const double below_k = s == 1.0
                ? std::log(kp1) / hn
                : (std::pow(kp1, 1.0 - s) - 1.0) / (hn * (1.0 - s));
            const double est = (1.0 - below_k) * 0x1.0p53;
            std::int64_t e = 0;
            if (est >= static_cast<double>(hi - 1))
                e = hi - 1;
            else if (est > 0.0)
                e = static_cast<std::int64_t>(est);
            std::int64_t step = 1;
            if (below(e, k)) {
                hi = e;
                for (; hi - step > lo && below(hi - step, k); step *= 2)
                    hi -= step;
                lo = std::max(lo, hi - step);
            } else {
                lo = e;
                for (; lo + step < hi && !below(lo + step, k); step *= 2)
                    lo += step;
                hi = std::min(hi, lo + step);
            }
            while (hi - lo > 1) {
                const std::int64_t mid = lo + (hi - lo) / 2;
                (below(mid, k) ? hi : lo) = mid;
            }
        }
        bound_[k] = static_cast<std::uint64_t>(hi);
    }

    // Guide: the rank of each bucket's first draw, filled by one merge
    // pass down the bounds.
    unsigned bits = 1;
    while ((std::uint64_t{1} << bits) < 2 * n)
        ++bits;
    shift_ = 53 - bits;
    guide_.resize(std::size_t{1} << bits);
    std::uint64_t k = n - 1;
    for (std::size_t b = 0; b < guide_.size(); ++b) {
        const std::uint64_t r = std::uint64_t{b} << shift_;
        while (r >= bound_[k])
            --k;
        guide_[b] = static_cast<std::uint32_t>(k);
    }
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::nextBounded called with bound == 0");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::nextRange called with lo > hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
Rng::nextGaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    cachedGaussian_ = mag * std::sin(2.0 * M_PI * u2);
    hasCachedGaussian_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::nextGaussian(double mean, double sigma)
{
    return mean + sigma * nextGaussian();
}

double
Rng::nextExponential(double lambda)
{
    if (lambda <= 0.0)
        panic("Rng::nextExponential requires lambda > 0");
    double u = 0.0;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    if (n == 0)
        panic("Rng::nextZipf requires n > 0");
    const std::uint64_t r = next() >> 11;
    if (n != zipfN_ || s != zipfS_) {
        // The normalizer depends only on (n, s); a workload draws from
        // one distribution, so the last pair is the whole cache.
        zipfHn_ = zipfNorm(n, s);
        zipfN_ = n;
        zipfS_ = s;
    }
    return zipfRank(r, n, s, zipfHn_);
}

std::uint64_t
Rng::nextZipf(const ZipfTable &table)
{
    return table.rank(next() >> 11);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xA5A5A5A5DEADBEEFull);
}

} // namespace pktchase
