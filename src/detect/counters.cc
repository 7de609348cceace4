#include "counters.hh"

#include <algorithm>
#include <cmath>

#include "sim/stats.hh"

namespace pktchase::detect
{

// ------------------------------------------------------ LlcCounterProbe --

LlcCounterProbe::LlcCounterProbe(SampleSink &sink, Cycles epoch_cycles,
                                 unsigned groups)
    : sink_(sink), width_(epoch_cycles), groups_(groups),
      epochEnd_(epoch_cycles)
{
    reset();
}

void
LlcCounterProbe::reset()
{
    acc_ = LlcSample{};
    acc_.groupMisses.assign(groups_, 0);
    acc_.groupFills.assign(groups_, 0);
    any_ = false;
}

void
LlcCounterProbe::publishEpoch(std::uint64_t epoch)
{
    // An epoch without events publishes the reset (all-zero) counts.
    acc_.epoch = epoch;
    acc_.start = epoch * width_;
    acc_.end = acc_.start + width_;
    sink_.publish(acc_);
}

void
LlcCounterProbe::rollSlow(Cycles now)
{
    const std::uint64_t target = now / width_;
    if (target <= epoch_)
        return;
    if (target - epoch_ > kMaxCatchUp) {
        // A long idle gap: publish what accumulated, then resume the
        // zero-filled series a bounded distance before the present so
        // detector windows refill with genuine idle epochs without
        // paying for the whole gap.
        publishEpoch(epoch_);
        reset();
        epoch_ = target - kMaxCatchUp;
    }
    while (epoch_ < target) {
        publishEpoch(epoch_);
        reset();
        ++epoch_;
    }
    epochEnd_ = (epoch_ + 1) * width_;
}

void
LlcCounterProbe::cpuAccess(unsigned group, bool hit, Cycles now)
{
    roll(now);
    any_ = true;
    ++acc_.cpuAccesses;
    if (!hit) {
        ++acc_.cpuMisses;
        if (group < groups_)
            ++acc_.groupMisses[group];
    }
}

void
LlcCounterProbe::ioInjection(unsigned group, bool displaced_cpu_line,
                             Cycles now)
{
    roll(now);
    any_ = true;
    ++acc_.ddioFills;
    if (displaced_cpu_line)
        ++acc_.ddioCpuDisplaced;
    if (group < groups_)
        ++acc_.groupFills[group];
}

void
LlcCounterProbe::ioLineConflict(unsigned group, Cycles now)
{
    (void)group;
    roll(now);
    any_ = true;
    ++acc_.ioConflicts;
}

void
LlcCounterProbe::flush(Cycles now)
{
    roll(now);
    if (any_) {
        publishEpoch(epoch_);
        reset();
        ++epoch_;
        epochEnd_ = (epoch_ + 1) * width_;
    }
}

// ------------------------------------------------------- RxCounterProbe --

RxCounterProbe::RxCounterProbe(SampleSink &sink, Cycles epoch_cycles,
                               std::size_t queues)
    : sink_(sink), width_(epoch_cycles), queues_(queues),
      curEnd_(epoch_cycles)
{
    agg_.perQueue.assign(queues, 0);
}

void
RxCounterProbe::publishAggregate(std::uint64_t epoch)
{
    const std::vector<double> counts(agg_.perQueue.begin(),
                                     agg_.perQueue.end());
    agg_.entropy = normalizedShannonEntropy(counts);
    agg_.epoch = epoch;
    agg_.start = epoch * width_;
    agg_.end = agg_.start + width_;
    sink_.publish(agg_);

    agg_.perQueue.assign(agg_.perQueue.size(), 0);
    agg_.total = 0;
}

void
RxCounterProbe::publishEpoch(std::size_t queue, std::uint64_t epoch)
{
    QueueState &qs = queues_[queue];

    // Shannon entropy of the epoch's page histogram, normalized by
    // the most even split n recycles allow. The counts come out of an
    // unordered_map, whose iteration order is hash/stdlib-dependent,
    // and FP addition is not associative -- sort before summing so
    // the value is platform-stable and safe to pin.
    std::vector<double> counts;
    counts.reserve(qs.pageCounts.size());
    for (const auto &kv : qs.pageCounts)
        counts.push_back(static_cast<double>(kv.second));
    std::sort(counts.begin(), counts.end());

    RxQueueSample s;
    s.epoch = epoch;
    s.start = epoch * width_;
    s.end = s.start + width_;
    s.queue = queue;
    s.recycles = qs.recycles;
    s.pages = qs.pageCounts.size();
    s.reuseMean = qs.reuseCount > 0
        ? static_cast<double>(qs.reuseSum) /
            static_cast<double>(qs.reuseCount)
        : 0.0;
    s.entropy = qs.recycles >= 2
        ? shannonEntropyBits(counts) /
            std::log2(static_cast<double>(qs.recycles))
        : 1.0;
    sink_.publish(s);

    qs.recycles = 0;
    qs.reuseSum = 0;
    qs.reuseCount = 0;
    qs.pageCounts.clear();
}

void
RxCounterProbe::onRecycle(std::size_t queue, std::size_t slot,
                          Addr page, Cycles now)
{
    (void)slot;
    if (queue >= queues_.size())
        return;
    QueueState &qs = queues_[queue];

    const std::uint64_t target = epochOf(now);
    if (target > qs.epoch) {
        if (qs.recycles > 0)
            publishEpoch(queue, qs.epoch);
        qs.epoch = target;
    }
    if (target > agg_.epoch) {
        if (agg_.total > 0)
            publishAggregate(agg_.epoch);
        agg_.epoch = target;
    }

    ++qs.recycleOrdinal;
    auto it = qs.lastSeen.find(page);
    if (it != qs.lastSeen.end()) {
        qs.reuseSum += qs.recycleOrdinal - it->second;
        ++qs.reuseCount;
        it->second = qs.recycleOrdinal;
    } else {
        qs.lastSeen.emplace(page, qs.recycleOrdinal);
    }
    ++qs.recycles;
    ++qs.pageCounts[page];
    ++agg_.perQueue[queue];
    ++agg_.total;
}

void
RxCounterProbe::flush(Cycles now)
{
    const std::uint64_t target = epochOf(now);
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        QueueState &qs = queues_[q];
        if (qs.recycles > 0) {
            publishEpoch(q, qs.epoch);
            qs.epoch = target;
        }
    }
    if (agg_.total > 0) {
        publishAggregate(agg_.epoch);
        agg_.epoch = target;
    }
}

} // namespace pktchase::detect
