#include "spy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pktchase::channel
{

std::vector<unsigned>
ListenResult::symbols() const
{
    std::vector<unsigned> out;
    out.reserve(events.size());
    for (const SymbolEvent &e : events)
        out.push_back(e.symbol);
    return out;
}

std::vector<SymbolEvent>
CovertSpy::decodeBuffer(std::size_t buffer,
                         const std::vector<RawSample> &samples) const
{
    // Group consecutive clock-active samples into one packet event and
    // OR the data rows across a bounded window (wide peaks span two
    // samples; skewed arrivals shift data activity by one sample).
    std::vector<SymbolEvent> events;
    std::size_t i = 0;
    while (i < samples.size()) {
        if (!samples[i].clock) {
            ++i;
            continue;
        }
        bool b2 = false, b3 = false;
        const std::size_t end =
            std::min(samples.size(), i + cfg_.decodeWindow);
        std::size_t j = i;
        for (; j < end && samples[j].clock; ++j) {
            b2 |= samples[j].b2;
            b3 |= samples[j].b3;
        }
        events.push_back(SymbolEvent{samples[i].when,
                                     decodeActivity(scheme_, b2, b3),
                                     buffer});
        i = std::max(j, i + 1);
        // Skip the remainder of an over-long run (background noise can
        // stretch the clock row) so one packet yields one symbol.
        while (i < samples.size() && samples[i].clock)
            ++i;
    }
    return events;
}

namespace
{

std::vector<std::vector<attack::EvictionSet>>
spyBufferSets(const attack::ComboGroups &groups,
              const std::vector<std::size_t> &buffer_combos,
              unsigned ways)
{
    if (buffer_combos.empty())
        panic("CovertSpy needs at least one monitored buffer");
    std::vector<std::vector<attack::EvictionSet>> out;
    out.reserve(buffer_combos.size());
    for (std::size_t combo : buffer_combos) {
        const attack::EvictionSet base =
            groups.evictionSetFor(combo, ways);
        std::vector<attack::EvictionSet> sets;
        sets.push_back(base.atBlock(1)); // clock (prefetch row)
        sets.push_back(base.atBlock(2));
        sets.push_back(base.atBlock(3));
        out.push_back(std::move(sets));
    }
    return out;
}

} // namespace

CovertSpy::CovertSpy(cache::Hierarchy &hier,
                     const attack::ComboGroups &groups,
                     std::vector<std::size_t> buffer_combos,
                     Scheme scheme, const SpyConfig &cfg)
    : scheme_(scheme), cfg_(cfg)
{
    std::vector<std::vector<attack::EvictionSet>> sets =
        spyBufferSets(groups, buffer_combos, cfg.probe.ways);
    buffers_.reserve(sets.size());
    for (std::vector<attack::EvictionSet> &s : sets)
        buffers_.emplace_back(hier, std::move(s), cfg.probe.missThreshold);
}

ListenResult
CovertSpy::listen(EventQueue &eq, Cycles horizon)
{
    std::vector<std::vector<RawSample>> raw(buffers_.size());
    ListenResult out;
    out.rounds = attack::sampleRounds(
        eq, buffers_, cfg_.probeRateHz, horizon,
        [&](std::size_t b, const attack::ProbeSample &s) {
            raw[b].push_back(RawSample{s.start, s.active[0] != 0,
                                       s.active[1] != 0,
                                       s.active[2] != 0});
        });
    for (std::size_t b = 0; b < raw.size(); ++b) {
        std::vector<SymbolEvent> events = decodeBuffer(b, raw[b]);
        out.events.insert(out.events.end(), events.begin(),
                          events.end());
    }
    std::sort(out.events.begin(), out.events.end(),
              [](const SymbolEvent &a, const SymbolEvent &b) {
                  return a.when < b.when;
              });
    return out;
}

} // namespace pktchase::channel
