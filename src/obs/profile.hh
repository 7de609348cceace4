/**
 * @file
 * In-process profile aggregation: streaming per-phase statistics the
 * existing span stream folds into at span close, instead of (or in
 * addition to) appending trace events for offline viewing.
 *
 * The trace layer answers "what happened when" by shipping every span
 * to a multi-MB Chrome trace; this layer answers "where does the wall
 * clock go" *in-process*: each profiled span site registers a
 * ProfilePhase once (interning its name into a small integer id), and
 * closing a span adds its duration into the calling thread's fixed
 * slot for that id -- count, total and self wall-time, min/max, and a
 * log2-bucketed latency histogram. No string keys, no allocation, no
 * lock on the hot path: a slot update is a handful of thread-local
 * integer adds.
 *
 * Self-time uses a per-thread stack of open profiled spans: a closing
 * span charges its duration to the parent frame's child accumulator,
 * so a phase's self time is its total minus the profiled spans nested
 * inside it (nesting is RAII, hence strictly LIFO per thread).
 *
 * Draining: obs::drainProfile() *moves* the calling thread's
 * accumulated stats out and resets the slots. The campaign executor
 * drains around every (cell, task) unit -- exactly like the counter
 * snapshot deltas -- so per-cell profiles exist, merge across task
 * folds and shards, and obey the determinism drill: a unit runs
 * start-to-finish on one thread, so its drained profile depends only
 * on the work it did, not on which worker ran it.
 *
 * Zero-cost-when-detached rule (same as tracing): with no
 * ProfileSession active -- the default everywhere, including every
 * golden test -- the thread-local block pointer is null and a span
 * costs one extra load + branch. Profiling observes wall-clock only
 * and feeds nothing back into the simulation, so goldens pass
 * bit-identically with it compiled in and a profiled campaign report
 * equals an unprofiled one byte-for-byte.
 *
 * Determinism hook: a session may run on a fake clock that advances a
 * fixed number of nanoseconds per query instead of reading the host
 * clock. Durations then depend only on the sequence of clock queries a
 * unit makes -- which is deterministic -- so the byte-identity tests
 * (threads=N == threads=1 per cell, shard-merge == unsharded) can pin
 * profile *values*, not just profile *shape*. Real runs use the wall
 * clock and pin only the deterministic fields (counts, nesting).
 */

#ifndef PKTCHASE_OBS_PROFILE_HH
#define PKTCHASE_OBS_PROFILE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pktchase::obs
{

/** Hard cap on registered phases (slots are flat per-thread arrays). */
constexpr std::size_t kMaxProfilePhases = 64;

/** Latency histogram buckets per phase (log2 of nanoseconds). */
constexpr std::size_t kProfileHistBuckets = 32;

/**
 * Histogram bucket of a span duration: bucket 0 holds exactly 0 ns,
 * bucket b >= 1 holds [2^(b-1), 2^b) ns, and the last bucket absorbs
 * everything from 2^(kProfileHistBuckets-2) ns (~1.07 s) up.
 */
constexpr std::size_t
profileHistBucket(std::uint64_t durNs)
{
    std::size_t b = 0;
    while (durNs != 0) {
        ++b;
        durNs >>= 1;
    }
    return b < kProfileHistBuckets ? b : kProfileHistBuckets - 1;
}

/** Inclusive lower edge of histogram bucket @p b, in nanoseconds. */
constexpr std::uint64_t
profileHistBucketLowNs(std::size_t b)
{
    return b == 0 ? 0 : std::uint64_t(1) << (b - 1);
}

/**
 * One phase's accumulated statistics. Plain data: merges are
 * element-wise (+, min, max), which is what makes per-task deltas sum
 * into per-cell profiles and per-cell profiles into shard reports.
 */
struct PhaseStats
{
    std::uint64_t count = 0;   ///< Spans closed.
    std::uint64_t totalNs = 0; ///< Inclusive wall time.
    std::uint64_t selfNs = 0;  ///< Total minus profiled children.
    std::uint64_t minNs = ~std::uint64_t(0); ///< Min span; ~0 if none.
    std::uint64_t maxNs = 0;   ///< Max span duration.
    std::array<std::uint64_t, kProfileHistBuckets> hist{};

    bool empty() const { return count == 0; }

    /** Fold one closed span in. @p childNs <= @p durNs. */
    void
    add(std::uint64_t durNs, std::uint64_t childNs)
    {
        ++count;
        totalNs += durNs;
        selfNs += durNs - childNs;
        if (durNs < minNs)
            minNs = durNs;
        if (durNs > maxNs)
            maxNs = durNs;
        ++hist[profileHistBucket(durNs)];
    }

    /** Element-wise merge of another window of the same phase. */
    void
    merge(const PhaseStats &o)
    {
        count += o.count;
        totalNs += o.totalNs;
        selfNs += o.selfNs;
        if (o.minNs < minNs)
            minNs = o.minNs;
        if (o.maxNs > maxNs)
            maxNs = o.maxNs;
        for (std::size_t b = 0; b < kProfileHistBuckets; ++b)
            hist[b] += o.hist[b];
    }
};

/**
 * One drained profile window: stats indexed by phase id. The vector is
 * sized to the number of registered phases (0 when profiling was off),
 * so ScenarioResult carries nothing unless a session is active.
 */
using ProfileDelta = std::vector<PhaseStats>;

/** Merge @p from into @p into (resizing @p into as needed). */
void mergeProfileInto(ProfileDelta &into, const ProfileDelta &from);

/**
 * A registered span site: interns @p name (and a Chrome-trace
 * category) into a process-wide phase id at construction. Define one
 * per instrumented phase with static storage duration:
 *
 *     static const obs::ProfilePhase kDeliver{"nic.deliver", "nic"};
 *     ...
 *     const obs::ScopedSpan span(kDeliver);
 *
 * Registration takes a lock and is meant for static-init /
 * first-use; fatal on a duplicate name or a full table. Ids are
 * assigned in registration order -- stable within a build, but
 * nothing may depend on their magnitude across builds; reports key
 * phases by name.
 */
class ProfilePhase
{
  public:
    ProfilePhase(const char *name, const char *cat);

    unsigned id() const { return id_; }
    const char *name() const { return name_; }
    const char *cat() const { return cat_; }

  private:
    const char *name_;
    const char *cat_;
    unsigned id_;
};

/** Number of phases registered so far. */
std::size_t registeredPhaseCount();

/** Name of phase @p id; fatal when out of range. */
const char *phaseName(std::size_t id);

/** Category of phase @p id; fatal when out of range. */
const char *phaseCat(std::size_t id);

namespace detail
{

/** One thread's private accumulation state. */
struct ProfileBlock
{
    std::array<PhaseStats, kMaxProfilePhases> slots{};

    /** Open profiled spans (strictly LIFO; RAII guarantees nesting). */
    struct Frame
    {
        unsigned phase = 0;
        std::uint64_t startNs = 0;
        std::uint64_t childNs = 0; ///< Total of closed children.
    };
    static constexpr std::size_t kMaxDepth = 64;
    std::array<Frame, kMaxDepth> stack;
    std::size_t depth = 0;
    /** Spans beyond kMaxDepth: counted, recorded as leaves (their
     *  time is not subtracted from any parent's self time). */
    std::uint64_t depthOverflows = 0;

    /** Fake-clock state: 0 = real steady_clock, else ns per query. */
    std::uint64_t tickNs = 0;
    std::uint64_t fakeNowNs = 0;

    std::uint64_t
    now()
    {
        if (tickNs)
            return fakeNowNs += tickNs;
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }
};

/** The calling thread's block, or nullptr while detached; a
 *  function-local thread_local for the same reason as tlsTrace(). */
inline ProfileBlock *&
tlsProfile()
{
    static thread_local ProfileBlock *block = nullptr;
    return block;
}

/** Span-open half of the hot path: push a frame for @p phaseId. */
inline void
profileOpen(ProfileBlock *p, unsigned phaseId)
{
    if (p->depth < ProfileBlock::kMaxDepth) {
        ProfileBlock::Frame &f = p->stack[p->depth];
        f.phase = phaseId;
        f.childNs = 0;
        f.startNs = p->now();
    } else {
        ++p->depthOverflows;
    }
    ++p->depth;
}

/** Span-close half: pop, fold into the slot, charge the parent. */
inline void
profileClose(ProfileBlock *p)
{
    --p->depth;
    if (p->depth >= ProfileBlock::kMaxDepth)
        return; // An overflowed leaf: nothing was pushed.
    ProfileBlock::Frame &f = p->stack[p->depth];
    const std::uint64_t endNs = p->now();
    const std::uint64_t durNs =
        endNs > f.startNs ? endNs - f.startNs : 0;
    const std::uint64_t childNs = f.childNs < durNs ? f.childNs : durNs;
    p->slots[f.phase].add(durNs, childNs);
    if (p->depth > 0)
        p->stack[p->depth - 1].childNs += durNs;
}

} // namespace detail

/** Whether the calling thread accumulates into an active session. */
inline bool
profiling()
{
    return detail::tlsProfile() != nullptr;
}

/**
 * Move the calling thread's accumulated stats out and reset the
 * slots, returning a vector sized to registeredPhaseCount() (empty
 * when not profiling). Open spans are unaffected: a span that closes
 * after the drain lands, whole, in the next window.
 */
ProfileDelta drainProfile();

/** Depth-cap overflows on the calling thread since attach (0 when
 *  not profiling) -- nonzero means self-times are approximate. */
std::uint64_t profileDepthOverflows();

/**
 * A profile recording: while alive, threads attached to it accumulate
 * phase stats (the constructing thread attaches immediately; campaign
 * workers attach via obs::attachWorkerThread, which serves both the
 * trace and the profile session). At most one session exists at a
 * time (fatal otherwise). The session owns no report: consumers drain
 * per-thread windows (the campaign executor does, per task) and
 * assemble their own output.
 *
 * @p tick_ns != 0 selects the deterministic fake clock: every clock
 * query advances the querying thread's clock by that many
 * nanoseconds. Tests (and the CI shard-merge byte-identity check) use
 * it to make profile values, not just shapes, reproducible.
 */
class ProfileSession
{
  public:
    explicit ProfileSession(std::uint64_t tick_ns = 0);
    ~ProfileSession();

    ProfileSession(const ProfileSession &) = delete;
    ProfileSession &operator=(const ProfileSession &) = delete;

    /** Attach the calling thread; fatal when already attached. */
    void attachCurrentThread();

    /** Stop accumulating on the calling thread (no-op if detached). */
    static void detachCurrentThread();

    /** The process-wide active session, or nullptr. */
    static ProfileSession *active();

    std::uint64_t tickNs() const { return tickNs_; }

    /** "wall" or "ticks:<N>" -- the clock tag reports carry so a
     *  deterministic-clock artifact can never pass as a real one. */
    std::string clockTag() const;

  private:
    std::uint64_t tickNs_;
};

} // namespace pktchase::obs

#endif // PKTCHASE_OBS_PROFILE_HH
