/**
 * @file
 * Spans: RAII scopes (obs::ScopedSpan) of one obs::ProfilePhase each,
 * recorded into the calling thread's block of the one span session,
 * obs::ProfileSession (profile.hh). The session always aggregates a
 * closed span into its phase; opened with a trace path (as by
 * `examples/campaign --trace=out.json`) it also keeps the span on the
 * thread's track and writes every track as Chrome trace-event JSON
 * (open it in chrome://tracing or https://ui.perfetto.dev): thread
 * names, one complete ("X") event per span, and a "dropped_events"
 * instant on a track that hit the per-thread cap, whose drop count is
 * also reported on stderr -- a truncated trace says so instead of
 * silently looking complete. The driver thread is track 0 and campaign
 * worker w is track w+1; recording takes no lock.
 *
 * Zero-cost-when-detached rule: with no session active (the default
 * everywhere, including every golden test), the thread-local block
 * pointer is null and a span is one load + branch -- it reads no
 * clock, allocates nothing, and touches no shared state. Spans observe
 * wall-clock only, never simulated cycles, and nothing here feeds back
 * into the simulation (`ctest -L golden` passes bit-identically).
 */

#ifndef PKTCHASE_OBS_TRACE_HH
#define PKTCHASE_OBS_TRACE_HH

#include <string>

#include "obs/profile.hh"

namespace pktchase::obs
{

/**
 * RAII span of one profile phase: folds [construction, destruction)
 * into the thread's PhaseStats slot for the phase, and keeps it on the
 * thread's trace track when the session writes a trace. Detached, the
 * constructor is one thread-local load and a branch.
 */
class ScopedSpan
{
  public:
    /** Span named after @p phase. */
    explicit ScopedSpan(const ProfilePhase &phase)
    {
        if (detail::ProfileBlock *p = detail::tlsProfile()) {
            prof_ = p;
            detail::profileOpen(p, phase.id());
        }
    }

    /** Span with a dynamic trace name (campaign cells and tasks): the
     *  trace track shows @p name, copied only when the session keeps
     *  the span; the profile aggregates under @p phase (per-cell split
     *  comes from the campaign drain). */
    ScopedSpan(const std::string &name, const ProfilePhase &phase)
    {
        if (detail::ProfileBlock *p = detail::tlsProfile()) {
            prof_ = p;
            detail::profileOpen(p, phase.id());
            detail::nameOpenSpan(p, name);
        }
    }

    ~ScopedSpan()
    {
        if (prof_)
            detail::profileClose(prof_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    detail::ProfileBlock *prof_ = nullptr;
};

} // namespace pktchase::obs

#endif // PKTCHASE_OBS_TRACE_HH
