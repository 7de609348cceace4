#include "footprint.hh"

#include "sim/logging.hh"

namespace pktchase::attack
{

namespace
{

std::vector<EvictionSet>
makeSets(const ComboGroups &groups, const std::vector<std::size_t> &combos,
         unsigned ways)
{
    std::vector<EvictionSet> sets;
    sets.reserve(combos.size());
    for (std::size_t c : combos)
        sets.push_back(groups.evictionSetFor(c, ways));
    return sets;
}

} // namespace

FootprintScanner::FootprintScanner(cache::Hierarchy &hier,
                                   const ComboGroups &groups,
                                   std::vector<std::size_t> combos,
                                   const FootprintConfig &cfg)
    : combos_(std::move(combos)), cfg_(cfg)
{
    monitor_.emplace_back(hier, makeSets(groups, combos_, cfg.probe.ways),
                          cfg.probe.missThreshold);
}

std::vector<ProbeSample>
FootprintScanner::scan(EventQueue &eq, Cycles horizon)
{
    std::vector<ProbeSample> samples;
    sampleRounds(eq, monitor_, cfg_.probeRateHz, horizon,
                 [&](std::size_t, const ProbeSample &s) {
                     samples.push_back(s);
                 });
    return samples;
}

std::vector<double>
FootprintScanner::activityRates(const std::vector<ProbeSample> &samples)
{
    if (samples.empty())
        return {};
    std::vector<double> rates(samples[0].active.size(), 0.0);
    for (const ProbeSample &s : samples)
        for (std::size_t i = 0; i < s.active.size(); ++i)
            rates[i] += s.active[i];
    for (double &r : rates)
        r /= static_cast<double>(samples.size());
    return rates;
}

std::vector<std::vector<std::size_t>>
FootprintScanner::attributeToQueues(
    const std::vector<std::size_t> &candidates,
    const std::vector<std::vector<std::size_t>> &queue_combos)
{
    std::vector<std::vector<std::size_t>> out(queue_combos.size());
    for (std::size_t q = 0; q < queue_combos.size(); ++q) {
        for (std::size_t cand : candidates) {
            for (std::size_t combo : queue_combos[q]) {
                if (combo == cand) {
                    out[q].push_back(cand);
                    break;
                }
            }
        }
    }
    return out;
}

std::vector<std::size_t>
FootprintScanner::candidateBufferSets(
    const std::vector<ProbeSample> &samples, double idle_cutoff,
    double always_cutoff)
{
    std::vector<std::size_t> out;
    const std::vector<double> rates = activityRates(samples);
    for (std::size_t i = 0; i < rates.size(); ++i)
        if (rates[i] > idle_cutoff && rates[i] < always_cutoff)
            out.push_back(i);
    return out;
}

} // namespace pktchase::attack
