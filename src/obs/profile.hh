/**
 * @file
 * The span session: in-process aggregation of the span stream into
 * per-phase statistics, and optionally the Chrome trace of every span.
 *
 * Each profiled span site registers a ProfilePhase once (interning its
 * name into a small integer id), and closing a span adds its duration
 * into the calling thread's fixed slot for that id -- count, total and
 * self wall-time, min/max, and a log2-bucketed latency histogram. No
 * string keys, no allocation, no lock on the hot path: a slot update
 * is a handful of thread-local integer adds.
 *
 * Self-time uses a per-thread stack of open profiled spans: a closing
 * span charges its duration to the parent frame's child accumulator,
 * so a phase's self time is its total minus the profiled spans nested
 * inside it (nesting is RAII, hence strictly LIFO per thread). A span
 * opened past the stack's kMaxDepth frames is neither aggregated nor
 * traced.
 *
 * Draining: obs::drainProfile() *moves* the calling thread's
 * accumulated stats out and resets the slots. The campaign executor
 * drains around every (cell, task) unit -- exactly like the counter
 * snapshot deltas -- so per-cell profiles exist, merge across task
 * folds and shards, and obey the determinism drill: a unit runs
 * start-to-finish on one thread, so its drained profile depends only
 * on the work it did, not on which worker ran it.
 *
 * Tracing: a session opened with a trace path also keeps every closed
 * span -- its phase (or dynamic name), start and duration, the same
 * two clock reads the aggregation makes -- in the thread's block, up
 * to a per-thread cap past which spans are counted as dropped, and
 * writes them as Chrome trace-event JSON (see obs/trace.hh).
 *
 * Zero-cost-when-detached rule: with no ProfileSession active -- the
 * default everywhere, including every golden test -- the thread-local
 * block pointer is null and a span costs one load + branch. Sessions
 * observe wall-clock only and feed nothing back into the simulation,
 * so goldens pass bit-identically with them compiled in and a
 * profiled or traced campaign report equals a plain one
 * byte-for-byte.
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
#include <map>
#include <memory>
#include <mutex>
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

/** One closed span a tracing session keeps for the trace file. */
struct SpanRecord
{
    unsigned phase = 0;
    std::uint32_t name = 0; ///< ProfileBlock::kPhaseName or a names index.
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
};

/** One thread's private accumulation state. */
struct ProfileBlock
{
    std::array<PhaseStats, kMaxProfilePhases> slots{};

    /** A span record's name is its phase's unless it indexes names. */
    static constexpr std::uint32_t kPhaseName = ~std::uint32_t(0);

    /** Open profiled spans (strictly LIFO; RAII guarantees nesting). */
    struct Frame
    {
        unsigned phase = 0;
        std::uint32_t name = kPhaseName;
        std::uint64_t startNs = 0;
        std::uint64_t childNs = 0; ///< Total of closed children.
    };
    static constexpr std::size_t kMaxDepth = 64;
    std::array<Frame, kMaxDepth> stack;
    std::size_t depth = 0; ///< May exceed kMaxDepth; see profileOpen().

    /** Fake-clock state: 0 = real steady_clock, else ns per query. */
    std::uint64_t tickNs = 0;
    std::uint64_t fakeNowNs = 0;

    /** The trace track: closed spans in close order, at most spanCap
     *  of them (0 when the session writes no trace), plus the dynamic
     *  names (cells, tasks) they index and the spans past the cap. */
    std::string threadName;
    std::size_t spanCap = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::string> names;
    std::uint64_t dropped = 0;

    static std::uint64_t
    wallNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    std::uint64_t now() { return tickNs ? fakeNowNs += tickNs : wallNs(); }
};

/**
 * The calling thread's block, or nullptr while detached. A
 * function-local thread_local, like tlsStats(): constant-initialized,
 * so each access is a plain TLS load with no cross-TU init wrapper
 * (an extern thread_local's wrapper is what UBSan flags as a null
 * load).
 */
inline ProfileBlock *&
tlsProfile()
{
    static thread_local ProfileBlock *block = nullptr;
    return block;
}

/** Span-open half of the hot path: push a frame for @p phaseId. Past
 *  kMaxDepth nothing is pushed; only the depth counts the span. */
inline void
profileOpen(ProfileBlock *p, unsigned phaseId)
{
    if (p->depth < ProfileBlock::kMaxDepth) {
        ProfileBlock::Frame &f = p->stack[p->depth];
        f.phase = phaseId;
        f.name = ProfileBlock::kPhaseName;
        f.childNs = 0;
        f.startNs = p->now();
    }
    ++p->depth;
}

/** Give the span profileOpen() just pushed the trace name @p name.
 *  Copied only when the thread's track may still keep the span. */
inline void
nameOpenSpan(ProfileBlock *p, const std::string &name)
{
    if (p->depth > ProfileBlock::kMaxDepth ||
        p->spans.size() >= p->spanCap)
        return;
    p->stack[p->depth - 1].name =
        static_cast<std::uint32_t>(p->names.size());
    p->names.push_back(name);
}

/** Span-close half: pop, fold into the slot, charge the parent, and
 *  keep the span on a tracing session's track. */
inline void
profileClose(ProfileBlock *p)
{
    --p->depth;
    if (p->depth >= ProfileBlock::kMaxDepth)
        return; // Past the cap: nothing was pushed.
    ProfileBlock::Frame &f = p->stack[p->depth];
    const std::uint64_t endNs = p->now();
    const std::uint64_t durNs =
        endNs > f.startNs ? endNs - f.startNs : 0;
    const std::uint64_t childNs = f.childNs < durNs ? f.childNs : durNs;
    p->slots[f.phase].add(durNs, childNs);
    if (p->depth > 0)
        p->stack[p->depth - 1].childNs += durNs;
    if (p->spanCap == 0)
        return;
    if (p->spans.size() < p->spanCap)
        p->spans.push_back({f.phase, f.name, f.startNs, durNs});
    else
        ++p->dropped;
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
 * after the drain lands, whole, in the next window. The trace track
 * is not drained.
 */
ProfileDelta drainProfile();

/**
 * The span session: while alive, threads attached to it accumulate
 * phase stats and, when it was given a trace path, keep their spans
 * for the trace file. The constructing thread attaches immediately as
 * track 0 ("driver"); campaign workers attach via
 * obs::attachWorkerThread(). At most one session exists at a time
 * (fatal otherwise). The session owns no report: consumers drain
 * per-thread windows (the campaign executor does, per task) and
 * assemble their own output.
 *
 * @p tick_ns != 0 selects the deterministic fake clock: every clock
 * query advances the querying thread's clock by that many
 * nanoseconds, and trace timestamps are those ticks. Tests (and the
 * CI shard-merge byte-identity check) use it to make profile values,
 * not just shapes, reproducible.
 */
class ProfileSession
{
  public:
    /** Default per-thread span cap of a tracing session. */
    static constexpr std::size_t kDefaultTraceCap = std::size_t(1) << 22;

    /**
     * @param tick_ns    Fake-clock step in ns; 0 reads the host clock.
     * @param trace_path Empty for a profile-only session; else the
     *                   Chrome trace file writeTrace() writes.
     * @param trace_cap  Spans kept per attached thread; later spans
     *                   are counted as dropped.
     */
    explicit ProfileSession(std::uint64_t tick_ns = 0,
                            std::string trace_path = {},
                            std::size_t trace_cap = kDefaultTraceCap);
    /** Detaches the calling thread and writes the trace if
     *  writeTrace() has not run yet. */
    ~ProfileSession();

    ProfileSession(const ProfileSession &) = delete;
    ProfileSession &operator=(const ProfileSession &) = delete;

    /**
     * Attach the calling thread as trace track @p tid named @p name;
     * fatal when already attached. Threads that attach must detach (or
     * exit) before the session is destroyed.
     */
    void attachCurrentThread(std::uint32_t tid, std::string name);

    /** Stop accumulating on the calling thread (no-op if detached). */
    static void detachCurrentThread();

    /** The process-wide active session, or nullptr. */
    static ProfileSession *active();

    /** "wall" or "ticks:<N>" -- the clock tag reports carry so a
     *  deterministic-clock artifact can never pass as a real one. */
    std::string clockTag() const;

    /**
     * Write the Chrome trace file; call after every worker detached.
     * Idempotent: a second call returns the first outcome; true
     * without a trace path.
     * @return false (with one line on stderr) when the file cannot be
     *         written completely.
     */
    bool writeTrace();

    /** Spans dropped past the cap over every attached thread. */
    std::uint64_t droppedEvents() const;

    /** One trace track's drop tally, for the profile report. */
    struct ThreadDrops
    {
        std::uint32_t tid = 0;
        std::uint64_t dropped = 0;
    };

    /** Per-track drop counts in ascending tid order, one entry per
     *  tid (empty without a trace path). Call after the campaign
     *  joined its workers, like writeTrace(). */
    std::vector<ThreadDrops> perThreadDrops() const;

  private:
    std::uint64_t tickNs_;
    std::string tracePath_;
    std::size_t traceCap_;
    std::uint64_t epochNs_; ///< Trace time zero: 0 on the fake clock.
    mutable std::mutex mutex_; ///< Guards blocks_ during attach.
    /** Every attached thread's block by tid, equal tids in attach
     *  order; kept until destruction so no pointer dangles. */
    std::multimap<std::uint32_t, std::unique_ptr<detail::ProfileBlock>>
        blocks_;
    bool written_ = false;
    bool writeOk_ = true;
};

/**
 * Attach the calling campaign worker to the active session as trace
 * track w+1 (track 0 is the driver); no-op without a session. Pair
 * with detachWorkerThread() before the worker exits.
 */
void attachWorkerThread(unsigned worker_index);

/** Detach the calling thread from the active session. */
void detachWorkerThread();

} // namespace pktchase::obs

#endif // PKTCHASE_OBS_PROFILE_HH
