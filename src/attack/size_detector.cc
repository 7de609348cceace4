#include "size_detector.hh"

#include "sim/logging.hh"

namespace pktchase::attack
{

namespace
{

std::vector<std::vector<EvictionSet>>
rowSets(const ComboGroups &groups,
        const std::vector<std::size_t> &combos,
        const SizeDetectorConfig &cfg)
{
    if (combos.empty() || cfg.rows == 0)
        panic("SizeDetector needs at least one row and one combo");
    std::vector<std::vector<EvictionSet>> out;
    out.reserve(cfg.rows);
    for (unsigned row = 0; row < cfg.rows; ++row) {
        std::vector<EvictionSet> sets;
        sets.reserve(combos.size());
        for (std::size_t c : combos)
            sets.push_back(
                groups.evictionSetFor(c, cfg.probe.ways).atBlock(row));
        out.push_back(std::move(sets));
    }
    return out;
}

} // namespace

SizeDetector::SizeDetector(cache::Hierarchy &hier,
                           const ComboGroups &groups,
                           std::vector<std::size_t> combos,
                           const SizeDetectorConfig &cfg)
    : probeRateHz_(cfg.probeRateHz)
{
    rows_.reserve(cfg.rows);
    for (std::vector<EvictionSet> &sets : rowSets(groups, combos, cfg))
        rows_.emplace_back(hier, std::move(sets), cfg.probe.missThreshold);
}

std::vector<std::vector<double>>
SizeDetector::measure(EventQueue &eq, Cycles horizon)
{
    const std::size_t combos = rows_[0].size();
    std::vector<std::vector<std::uint64_t>> hits(
        rows_.size(), std::vector<std::uint64_t>(combos, 0));
    const std::uint64_t rounds = sampleRounds(
        eq, rows_, probeRateHz_, horizon,
        [&](std::size_t row, const ProbeSample &s) {
            for (std::size_t c = 0; c < combos; ++c)
                hits[row][c] += s.active[c];
        });

    std::vector<std::vector<double>> out(
        rows_.size(), std::vector<double>(combos, 0.0));
    if (rounds == 0)
        return out;
    for (std::size_t row = 0; row < rows_.size(); ++row)
        for (std::size_t c = 0; c < combos; ++c)
            out[row][c] = static_cast<double>(hits[row][c]) /
                static_cast<double>(rounds);
    return out;
}

std::vector<double>
SizeDetector::rowActivity(const std::vector<std::vector<double>> &m)
{
    std::vector<double> out;
    out.reserve(m.size());
    for (const auto &row : m) {
        double sum = 0.0;
        for (double v : row)
            sum += v;
        out.push_back(row.empty() ? 0.0
                                  : sum / static_cast<double>(row.size()));
    }
    return out;
}

} // namespace pktchase::attack
