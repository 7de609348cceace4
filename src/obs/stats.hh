/**
 * @file
 * Hot-path metrics: a fixed set of per-thread monotonic counters the
 * simulator's inner loops bump unconditionally.
 *
 * This is the *simulator's own* performance telemetry -- events popped
 * per wall-second, frames delivered, LLC walks -- as opposed to
 * sim::CounterBus, which models the *simulated machine's* PMU.
 *
 * Design constraints:
 *
 *  - **Cheap enough to leave on.** A bump is one increment of a
 *    thread-local 64-bit slot; there is no registry lookup, no string
 *    key, no branch on an "enabled" flag. The counter set is a closed
 *    enum so the storage is a flat array.
 *  - **Deterministic.** Counters advance only with simulated work,
 *    never with wall-clock, threads, or scheduling. A campaign (cell,
 *    task) unit runs start-to-finish on one worker, so the per-unit
 *    delta (snapshot before minus snapshot after, taken by the
 *    Campaign executor) is a pure function of (campaign seed, grid
 *    index, task index) --
 *    counter totals inherit the threads=N == threads=1 merge contract
 *    (tests/obs_test.cc pins this).
 *  - **Leaf dependency.** Everything from sim::EventQueue up may bump;
 *    this header includes nothing from the rest of the codebase.
 */

#ifndef PKTCHASE_OBS_STATS_HH
#define PKTCHASE_OBS_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pktchase::obs
{

/** The closed set of hot-path counters. */
enum class Stat : unsigned
{
    /**
     * Logical events executed: EventQueue callbacks popped plus
     * events a handler folded into itself via tryAdvanceWithin(), so
     * totals are identical whether hot loops batch or reschedule.
     */
    SimEvents = 0,
    FramesDelivered, ///< IgbDriver::receive completions.
    LlcAccesses,     ///< Llc cpuRead + cpuWrite + ioWrite calls.
    LlcMisses,       ///< Llc demand-miss fills + I/O allocations.
    ProbeRounds,     ///< PrimeProbeMonitor::probeAll rounds.
    /**
     * BufferPolicy hook dispatches, counted per frame: a hook the
     * driver skips because the policy's HookTraits mark it a no-op is
     * not counted, and one onPacketBatch call covering k frames
     * counts k.
     */
    PolicyHooks,
    DetectorEpochs,  ///< CounterBus samples published.
};

/** Number of Stat enumerators. */
constexpr std::size_t kStatCount = 7;

/** Stable snake_case name of @p s ("sim_events", ...). */
const char *statName(Stat s);

namespace detail
{

/** The calling thread's counter block. */
struct StatBlock
{
    std::array<std::uint64_t, kStatCount> counts{};
};

/**
 * The block lives inside an inline function rather than as an extern
 * thread_local object: constant-initialized and trivially
 * destructible, the local compiles to a plain TLS access with no
 * cross-TU init-wrapper call on the bump path (and no wrapper for
 * UBSan to trip over).
 */
inline StatBlock &
tlsStats()
{
    static thread_local StatBlock block;
    return block;
}

} // namespace detail

/** Add @p n to the calling thread's counter @p s. */
inline void
bump(Stat s, std::uint64_t n = 1)
{
    detail::tlsStats().counts[static_cast<unsigned>(s)] += n;
}

/**
 * A copy of one thread's counters at one instant. Snapshots subtract,
 * so a scope's cost is snapshot()-at-exit minus snapshot()-at-entry.
 */
struct StatSnapshot
{
    std::array<std::uint64_t, kStatCount> counts{};

    std::uint64_t
    get(Stat s) const
    {
        return counts[static_cast<unsigned>(s)];
    }

    /** Element-wise difference; @p earlier must not exceed *this. */
    StatSnapshot operator-(const StatSnapshot &earlier) const;

    /**
     * The snapshot as (name, value) pairs in enum order -- the shape
     * runtime::ScenarioResult::counters carries from the worker that
     * ran a unit to its cell's fold.
     */
    std::vector<std::pair<std::string, std::uint64_t>> toCounters() const;
};

/** Snapshot the calling thread's counters. */
StatSnapshot snapshot();

} // namespace pktchase::obs

#endif // PKTCHASE_OBS_STATS_HH
