#include "stats.hh"

#include "sim/logging.hh"

namespace pktchase::obs
{

const char *
statName(Stat s)
{
    switch (s) {
      case Stat::SimEvents:
        return "sim_events";
      case Stat::FramesDelivered:
        return "frames_delivered";
      case Stat::LlcAccesses:
        return "llc_accesses";
      case Stat::LlcMisses:
        return "llc_misses";
      case Stat::ProbeRounds:
        return "probe_rounds";
      case Stat::PolicyHooks:
        return "policy_hooks";
      case Stat::DetectorEpochs:
        return "detector_epochs";
    }
    panic("obs::statName: unknown Stat");
}

StatSnapshot
StatSnapshot::operator-(const StatSnapshot &earlier) const
{
    StatSnapshot out;
    for (std::size_t i = 0; i < kStatCount; ++i) {
        if (counts[i] < earlier.counts[i])
            panic("obs::StatSnapshot: counters ran backwards");
        out.counts[i] = counts[i] - earlier.counts[i];
    }
    return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
StatSnapshot::toCounters() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(kStatCount);
    for (std::size_t i = 0; i < kStatCount; ++i)
        out.emplace_back(statName(static_cast<Stat>(i)), counts[i]);
    return out;
}

StatSnapshot
snapshot()
{
    StatSnapshot s;
    s.counts = detail::tlsStats().counts;
    return s;
}

} // namespace pktchase::obs
