/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component draws from an explicitly seeded Rng so that
 * experiments are reproducible run-to-run; there is no global generator.
 * The core is xoshiro256**, which is fast and has no observable bias for
 * our use cases (set selection, jitter, noise injection).
 */

#ifndef PKTCHASE_SIM_RNG_HH
#define PKTCHASE_SIM_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace pktchase
{

/**
 * The step function Rng::nextZipf(n, s) computes from its 53-bit draw,
 * tabulated for one (n, s) so that a draw needs no `pow`.
 *
 * The closed-form rank is non-increasing in the draw, so it is fixed
 * by n - 1 thresholds: bound_[k] is the first draw whose rank is below
 * k. Each is found once, by bisecting the closed form itself from the
 * continuous inverse's estimate, so rank(r) equals the closed form's
 * rank of r for every draw. A guide of 2^ceil(log2 2n) buckets holds
 * the rank of each bucket's first draw; a lookup starts there and
 * steps down past the thresholds at or below r, usually none.
 */
class ZipfTable
{
  public:
    /** Tabulate ranks in [0, n) with exponent s; n in [1, 2^32]. */
    ZipfTable(std::uint64_t n, double s);

    /** Rank of the 53-bit draw @p r, as nextZipf(n, s) maps it. */
    std::uint64_t
    rank(std::uint64_t r) const
    {
        std::uint32_t k = guide_[r >> shift_];
        while (r >= bound_[k])
            --k;
        return k;
    }

  private:
    std::vector<std::uint64_t> bound_; ///< bound_[0] is 2^53.
    std::vector<std::uint32_t> guide_;
    unsigned shift_ = 0;
};

/**
 * Seedable xoshiro256** generator with distribution helpers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in the closed interval [lo, hi]. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial: true with probability p. */
    bool nextBool(double p = 0.5);

    /** Standard normal variate (Box-Muller with caching). */
    double nextGaussian();

    /** Normal variate with the given mean and standard deviation. */
    double nextGaussian(double mean, double sigma);

    /** Exponential variate with the given rate (lambda). */
    double nextExponential(double lambda);

    /**
     * Zipf-distributed rank in [0, n) with exponent s: one 53-bit draw
     * inverted through the continuous Zipf CDF in closed form, one
     * `pow` per draw. This is the closed form a ZipfTable reproduces;
     * workload::ServerWorkload draws its object-store ranks through
     * one, which yields the same rank from the same generator state.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /**
     * nextZipf(n, s) for the table's (n, s), read from the table:
     * consumes exactly one next(), as nextZipf(n, s) does.
     */
    std::uint64_t nextZipf(const ZipfTable &table);

    /** Fisher-Yates shuffle of a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextBounded(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Split off an independent child generator (for sub-components). */
    Rng split();

  private:
    std::uint64_t state_[4];
    bool hasCachedGaussian_ = false;
    double cachedGaussian_ = 0.0;

    // nextZipf's normalizer for the last (n, s); n == 0 never matches.
    std::uint64_t zipfN_ = 0;
    double zipfS_ = 0.0;
    double zipfHn_ = 0.0;
};

} // namespace pktchase

#endif // PKTCHASE_SIM_RNG_HH
