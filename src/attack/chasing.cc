#include "chasing.hh"

#include "sim/logging.hh"

namespace pktchase::attack
{

ChasingMonitor::ChasingMonitor(cache::Hierarchy &hier,
                               const ComboGroups &groups,
                               std::vector<std::size_t> combo_seq,
                               const ProbeEngineConfig &cfg)
    : engine_(hier, cfg), queues_(1)
{
    engine_.addChaseStream(groups, std::move(combo_seq));
    engine_.attach(observer_);
}

ChasingMonitor::ChasingMonitor(
    cache::Hierarchy &hier, const ComboGroups &groups,
    std::vector<std::vector<std::size_t>> queue_seqs,
    const ProbeEngineConfig &cfg)
    : engine_(hier, cfg), queues_(queue_seqs.size())
{
    if (queue_seqs.empty())
        panic("ChasingMonitor needs at least one queue sequence");
    for (auto &seq : queue_seqs)
        engine_.addChaseStream(groups, std::move(seq));
    engine_.attach(observer_);
}

ChaseResult
ChasingMonitor::chase(EventQueue &eq, Cycles horizon)
{
    engine_.run(eq, horizon);

    ChaseResult result;
    result.packets = observer_.packets();
    result.finalSlots.reserve(queues_);
    for (std::size_t q = 0; q < queues_; ++q) {
        const ProbeEngine::StreamStats &s = engine_.stats(q);
        result.outOfSyncEvents += s.outOfSyncEvents;
        result.probes += s.probes;
        result.finalSlots.push_back(s.cursor);
    }
    result.finalSlot = result.finalSlots[0];
    return result;
}

} // namespace pktchase::attack
