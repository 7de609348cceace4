#include "chasing.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace pktchase::attack
{

namespace
{

/** Build the monitor sets for one ring slot's page. */
std::vector<EvictionSet>
slotSets(const ComboGroups &groups, std::size_t combo,
         const ChaseConfig &cfg)
{
    std::vector<EvictionSet> sets;
    sets.reserve(2 * cfg.sizeBlocks);
    const EvictionSet base = groups.evictionSetFor(combo, cfg.probe.ways);
    const unsigned last = cfg.firstBlock + cfg.sizeBlocks;
    for (unsigned b = cfg.firstBlock; b < last; ++b)
        sets.push_back(base.atBlock(b));
    if (!cfg.lowerHalfOnly) {
        const unsigned half = static_cast<unsigned>(blocksPerPage / 2);
        for (unsigned b = cfg.firstBlock; b < last; ++b)
            sets.push_back(base.atBlock(half + b));
    }
    return sets;
}

} // namespace

ChasingMonitor::ChasingMonitor(
    cache::Hierarchy &hier, const ComboGroups &groups,
    const std::vector<std::vector<std::size_t>> &queue_seqs,
    const ChaseConfig &cfg)
    : cfg_(cfg), cursors_(queue_seqs.size())
{
    if (queue_seqs.empty())
        panic("ChasingMonitor needs at least one queue sequence");
    for (std::size_t q = 0; q < queue_seqs.size(); ++q) {
        if (queue_seqs[q].empty())
            panic("ChasingMonitor: a queue sequence is empty");
        Cursor &c = cursors_[q];
        c.monitors.reserve(queue_seqs[q].size());
        for (std::size_t combo : queue_seqs[q]) {
            c.monitors.emplace_back(hier, slotSets(groups, combo, cfg_),
                                    cfg_.probe.missThreshold);
        }
        c.accum.assign(c.monitors[0].size(), 0);
    }
    result_.queues.resize(cursors_.size());
}

unsigned
ChasingMonitor::classify(const std::vector<std::uint8_t> &active,
                         bool &second_half) const
{
    const unsigned n = cfg_.sizeBlocks;
    // A packet fires the first monitored row (block 0, or block 1 in
    // covert mode where the prefetch guarantees it) of whichever half
    // the driver handed to the NIC; size class is the highest active
    // block in that half.
    auto class_of = [&](unsigned base) -> unsigned {
        if (!active[base])
            return 0;
        unsigned cls = cfg_.firstBlock + 1;
        for (unsigned b = 1; b < n; ++b)
            if (active[base + b])
                cls = cfg_.firstBlock + b + 1;
        return cls;
    };
    const unsigned lower = class_of(0);
    const unsigned upper = (active.size() >= 2 * n) ? class_of(n) : 0;
    if (lower >= upper) {
        second_half = false;
        return lower;
    }
    second_half = true;
    return upper;
}

void
ChasingMonitor::probeRound(std::size_t q)
{
    static const obs::ProfilePhase kChasePhase{"probe.chase-round",
                                               "attack"};
    const obs::ScopedSpan span(kChasePhase);
    EventQueue &eq = *eq_;
    Cursor &c = cursors_[q];
    QueueChaseStats &stats = result_.queues[q];

    // A packet's DMA can land mid-probe, splitting its evidence across
    // two rounds (early rows in this round, late rows -- already
    // re-primed -- only via the previous round). Activity is therefore
    // accumulated across the probes of one slot visit and classified
    // once the first monitored row has fired.
    const ProbeSample &s = c.monitors[c.slot].probeAll(eq.now());
    ++stats.probes;
    for (std::size_t i = 0; i < c.accum.size(); ++i)
        c.accum[i] |= s.active[i];
    bool second_half = false;
    const unsigned cls = classify(c.accum, second_half);
    if (cls > 0) {
        ++stats.packets;
        result_.packets.push_back(
            PacketObservation{eq.now(), cls, second_half, c.slot, q});
        c.lastActivity = eq.now();
        c.slot = (c.slot + 1) % c.monitors.size();
        std::fill(c.accum.begin(), c.accum.end(), 0);
    } else if (eq.now() - c.lastActivity > cfg_.resyncTimeout) {
        // Lost the ring position: park here until the ring wraps and
        // this buffer fills again.
        ++stats.outOfSyncEvents;
        c.lastActivity = eq.now();
        std::fill(c.accum.begin(), c.accum.end(), 0);
    }
    // The next probe cannot start before this one's loads retired: the
    // probe cost is what lets fast senders outrun the spy (the Fig.
    // 12c/d error jump at the top rate).
    const Cycles next = std::max(eq.now() + cfg_.probeInterval, s.end);
    if (next <= horizon_)
        eq.schedule(next, [this, q] { probeRound(q); });
}

ChaseResult
ChasingMonitor::chase(EventQueue &eq, Cycles horizon)
{
    if (eq_)
        panic("ChasingMonitor::chase: one chase per monitor");
    eq_ = &eq;
    horizon_ = horizon;

    // Prime every cursor once; from then on each probe doubles as the
    // re-prime of its sets, so evidence of a packet that lands before
    // the spy reaches its buffer survives until the probe arrives
    // (stale by at most one ring lap).
    for (Cursor &c : cursors_)
        for (PrimeProbeMonitor &m : c.monitors)
            m.primeAll(eq.now());

    // Cursors start in queue order at the same cycle; the event
    // queue's FIFO tie-break keeps the round interleaving -- and hence
    // the merged packet order -- deterministic.
    for (std::size_t q = 0; q < cursors_.size(); ++q) {
        cursors_[q].lastActivity = eq.now();
        eq.schedule(eq.now(), [this, q] { probeRound(q); });
    }
    eq.runUntil(horizon);

    for (const QueueChaseStats &s : result_.queues) {
        result_.probes += s.probes;
        result_.outOfSyncEvents += s.outOfSyncEvents;
    }
    return std::move(result_);
}

} // namespace pktchase::attack
