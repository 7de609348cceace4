/**
 * @file
 * Per-set LRU replacement with masked victim selection.
 *
 * Victim selection takes a candidate-way mask because both DDIO's
 * two-way write-allocation cap and the adaptive partitioning defense
 * (Sec. VII) restrict which ways a fill is allowed to displace. LRU is
 * the replacement policy of the paper's LLC and of every experiment
 * here.
 */

#ifndef PKTCHASE_CACHE_REPLACEMENT_HH
#define PKTCHASE_CACHE_REPLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pktchase::cache
{

/** Bitmask over ways; way w is a candidate iff bit w is set. */
using WayMask = std::uint32_t;

/**
 * True least-recently-used via per-line timestamps, covering all sets
 * of one cache. The methods are defined inline: touch and victim are
 * the hottest calls in the simulator after the event loop.
 */
class LruPolicy
{
  public:
    LruPolicy(std::size_t sets, unsigned ways)
        : ways_(ways), stamps_(sets * ways, 0)
    {
    }

    /** Record a reference to @p way of @p set. */
    void
    touch(std::size_t set, unsigned way)
    {
        stamps_[set * ways_ + way] = clock_++;
    }

    /**
     * Choose a victim among the candidate ways of @p set.
     * @param set  Global set index.
     * @param mask Candidate ways (must be nonzero).
     * @return The least recently used candidate way.
     */
    unsigned
    victim(std::size_t set, WayMask mask) const
    {
        if (mask == 0)
            panicEmptyMask();
        unsigned best_way = 0;
        std::uint64_t best_stamp = ~0ull;
        const std::uint64_t *stamps = &stamps_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!(mask & (WayMask(1) << w)))
                continue;
            const std::uint64_t s = stamps[w];
            if (s < best_stamp) {
                best_stamp = s;
                best_way = w;
            }
        }
        return best_way;
    }

    /** Make @p way of @p set the oldest (e.g., after an invalidation). */
    void
    reset(std::size_t set, unsigned way)
    {
        stamps_[set * ways_ + way] = 0;
    }

  private:
    [[noreturn]] static void panicEmptyMask();

    unsigned ways_;
    std::uint64_t clock_ = 1;
    std::vector<std::uint64_t> stamps_; ///< sets x ways, 0 == never used.
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_REPLACEMENT_HH
