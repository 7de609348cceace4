#include "injection_policy.hh"

#include <algorithm>

#include "cache/llc.hh"
#include "sim/logging.hh"

namespace pktchase::cache
{

void
NoDdioPolicy::init(Llc &llc)
{
    cap_ = llc.config().ddioWays;
}

void
DdioPolicy::init(Llc &llc)
{
    cap_ = llc.config().ddioWays;
}

DdioWaysPolicy::DdioWaysPolicy(std::uint64_t ways)
    : ways_(static_cast<unsigned>(ways))
{
    if (ways == 0)
        fatal("DdioWaysPolicy: ddio-ways must be nonzero");
    if (ways_ != ways) {
        fatal("DdioWaysPolicy: ddio-ways " + std::to_string(ways) +
              " does not fit an unsigned way count");
    }
}

std::string
DdioWaysPolicy::name() const
{
    return "cache.ddio-ways:" + std::to_string(ways_);
}

void
DdioWaysPolicy::init(Llc &llc)
{
    if (ways_ > llc.geometry().ways)
        fatal("DdioWaysPolicy: ddio-ways exceeds the set's ways");
}

void
AdaptivePartitionPolicy::init(Llc &llc)
{
    const LlcConfig &cfg = llc.config();
    if (cfg.ioLinesMin == 0 || cfg.ioLinesMin > cfg.ioLinesMax ||
        cfg.ioLinesMax >= cfg.geom.ways) {
        fatal("Llc: bad adaptive partition bounds");
    }
    if (cfg.ioLinesInit < cfg.ioLinesMin ||
        cfg.ioLinesInit > cfg.ioLinesMax) {
        fatal("Llc: ioLinesInit outside [min, max]");
    }
    if (cfg.adaptPeriod == 0)
        fatal("Llc: adaptPeriod must be nonzero");

    ways_ = cfg.geom.ways;
    ioLinesMin_ = cfg.ioLinesMin;
    ioLinesMax_ = cfg.ioLinesMax;
    adaptPeriod_ = cfg.adaptPeriod;
    tHigh_ = cfg.tHigh;
    tLow_ = cfg.tLow;
    part_.assign(cfg.geom.totalSets(), PartState{
        static_cast<std::uint8_t>(cfg.ioLinesInit), 0, 0, 0});
}

unsigned
AdaptivePartitionPolicy::ioCap(std::size_t gset) const
{
    return part_[gset].ioLines;
}

void
AdaptivePartitionPolicy::adapt(Llc &llc, std::size_t gset)
{
    PartState &ps = part_[gset];
    llc.notePartitionAdaptation();
    const unsigned old_lines = ps.ioLines;
    if (ps.presentAcc > tHigh_) {
        ps.ioLines = static_cast<std::uint8_t>(
            std::min<unsigned>(ps.ioLines + 1, ioLinesMax_));
    } else if (ps.presentAcc < tLow_) {
        ps.ioLines = static_cast<std::uint8_t>(
            std::max<unsigned>(ps.ioLines - 1, ioLinesMin_));
    }
    if (ps.ioLines != old_lines)
        enforce(llc, gset);
}

void
AdaptivePartitionPolicy::enforce(Llc &llc, std::size_t gset)
{
    const PartState &ps = part_[gset];
    // Shrink: displace I/O lines beyond the new bound.
    while (llc.ioCount(gset) > ps.ioLines)
        llc.partitionDrop(gset, true);
    // Grow: displace CPU lines past the reduced CPU quota.
    const unsigned cpu_quota = ways_ - ps.ioLines;
    while (llc.validCount(gset) - llc.ioCount(gset) > cpu_quota)
        llc.partitionDrop(gset, false);
}

void
AdaptivePartitionPolicy::onAccess(Llc &llc, std::size_t gset,
                                  Cycles now)
{
    PartState &ps = part_[gset];
    if (now < ps.lastUpdate) {
        // Out-of-order timestamps can occur when distinct agents use
        // loosely synchronized clocks; treat as "no time elapsed".
        return;
    }

    // Between accesses the set's contents are constant, so presence is
    // constant over the catch-up span. The partition size saturates
    // after at most (max - min) same-direction adjustments, after which
    // further idle periods are no-ops and can be skipped in O(1).
    unsigned budget = ioLinesMax_ - ioLinesMin_ + 1;
    while (ps.periodStart + adaptPeriod_ <= now) {
        const Cycles period_end = ps.periodStart + adaptPeriod_;
        const bool present = llc.ioCount(gset) > 0;
        if (present)
            ps.presentAcc += period_end - ps.lastUpdate;
        adapt(llc, gset);
        ps.presentAcc = 0;
        ps.periodStart = period_end;
        ps.lastUpdate = period_end;

        if (budget > 0)
            --budget;
        if (budget == 0) {
            // Partition size has saturated for this (constant) presence
            // level; every further idle period repeats the same decision,
            // so whole periods can be skipped in O(1).
            const Cycles whole =
                (now - ps.periodStart) / adaptPeriod_;
            if (whole > 0) {
                ps.periodStart += whole * adaptPeriod_;
                ps.lastUpdate = ps.periodStart;
            }
        }
    }
    const bool present = llc.ioCount(gset) > 0;
    if (present)
        ps.presentAcc += now - ps.lastUpdate;
    ps.lastUpdate = now;
}

} // namespace pktchase::cache
