#include "prime_probe.hh"

#include <algorithm>

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace pktchase::attack
{

PrimeProbeMonitor::PrimeProbeMonitor(cache::Hierarchy &hier,
                                     std::vector<EvictionSet> sets,
                                     Cycles miss_threshold)
    : hier_(hier), sets_(std::move(sets)), missThreshold_(miss_threshold)
{
    if (sets_.empty())
        panic("PrimeProbeMonitor needs at least one eviction set");
    rebuildLines();
}

void
PrimeProbeMonitor::rebuildLines()
{
    lines_.clear();
    setStart_.clear();
    setStart_.reserve(sets_.size() + 1);
    std::size_t total = 0;
    for (const EvictionSet &es : sets_)
        total += es.addrs.size();
    lines_.reserve(total);
    for (const EvictionSet &es : sets_) {
        setStart_.push_back(lines_.size());
        lines_.insert(lines_.end(), es.addrs.begin(), es.addrs.end());
    }
    setStart_.push_back(lines_.size());
    sample_.active.resize(sets_.size());
}

Cycles
PrimeProbeMonitor::primeAll(Cycles now)
{
    Cycles t = now;
    for (Addr a : lines_)
        t += hier_.timedRead(a, t);
    timedLoads_ += lines_.size();
    return t - now;
}

const ProbeSample &
PrimeProbeMonitor::probeAll(Cycles now)
{
    // One prime+probe round = one LLC walk over the monitor list; this
    // is the attacker pipeline's innermost hot path, so it carries
    // both the probe-round counter and the llc.walk trace span. The
    // walk streams the flat line array directly -- per-set boundaries
    // only mark where the active flag latches.
    static const obs::ProfilePhase kWalkPhase{"llc.walk", "cache"};
    const obs::ScopedSpan span(kWalkPhase);
    obs::bump(obs::Stat::ProbeRounds);
    sample_.start = now;
    Cycles t = now;
    const std::size_t n = sets_.size();
    for (std::size_t i = 0; i < n; ++i) {
        unsigned misses = 0;
        const std::size_t end = setStart_[i + 1];
        for (std::size_t k = setStart_[i]; k < end; ++k) {
            const Cycles lat = hier_.timedRead(lines_[k], t);
            t += lat;
            if (lat > missThreshold_)
                ++misses;
        }
        sample_.active[i] = misses > 0 ? 1 : 0;
    }
    timedLoads_ += lines_.size();
    sample_.end = t;
    return sample_;
}

void
PrimeProbeMonitor::replaceSet(std::size_t index, EvictionSet set)
{
    if (index >= sets_.size())
        panic("PrimeProbeMonitor::replaceSet out of range");
    sets_[index] = std::move(set);
    rebuildLines();
}

std::uint64_t
sampleRounds(EventQueue &eq, std::vector<PrimeProbeMonitor> &monitors,
             double rate_hz, Cycles horizon, const SampleFn &on_sample)
{
    static const obs::ProfilePhase kSamplePhase{"probe.sample-round",
                                                "attack"};
    if (monitors.empty())
        panic("sampleRounds needs at least one monitor");
    const Cycles interval = secondsToCycles(1.0 / rate_hz);

    // Prime once; from then on each probe doubles as the re-prime.
    for (PrimeProbeMonitor &m : monitors)
        m.primeAll(eq.now());

    std::uint64_t rounds = 0;
    std::function<void()> round = [&] {
        const obs::ScopedSpan span(kSamplePhase);
        Cycles t = eq.now();
        for (std::size_t i = 0; i < monitors.size(); ++i) {
            const ProbeSample &s = monitors[i].probeAll(t);
            t = s.end;
            on_sample(i, s);
        }
        ++rounds;
        const Cycles next = eq.now() + std::max(interval, t - eq.now());
        if (next <= horizon)
            eq.schedule(next, [&round] { round(); });
    };
    eq.schedule(eq.now(), [&round] { round(); });
    eq.runUntil(horizon);
    return rounds;
}

} // namespace pktchase::attack
