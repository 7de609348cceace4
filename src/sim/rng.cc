#include "rng.hh"

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

} // namespace

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
    // Rejection-inversion sampling (Hormann & Derflinger) is overkill for
    // the workload model; a simple inverse-CDF walk over a cached harmonic
    // sum would be O(n) per draw, so we use the standard approximation:
    // draw u and invert the continuous Zipf CDF, then clamp.
    const double u = 1.0 - nextDouble(); // (0, 1]
    const double oneMinusS = 1.0 - s;
    if (n != zipfN_ || s != zipfS_) {
        // The normalizer depends only on (n, s); a workload draws from
        // one distribution, so the last pair is the whole cache.
        zipfHn_ = s == 1.0
            ? std::log(static_cast<double>(n) + 1.0)
            : (std::pow(static_cast<double>(n) + 1.0, oneMinusS) - 1.0) /
                oneMinusS;
        zipfN_ = n;
        zipfS_ = s;
    }
    const double hn = zipfHn_;
    if (s == 1.0) {
        const double x = std::exp(u * hn) - 1.0;
        const auto k = static_cast<std::uint64_t>(x);
        return std::min(k, n - 1);
    }
    const double x =
        std::pow(u * hn * oneMinusS + 1.0, 1.0 / oneMinusS) - 1.0;
    const auto k = static_cast<std::uint64_t>(x);
    return std::min(k, n - 1);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xA5A5A5A5DEADBEEFull);
}

} // namespace pktchase
