#include "event_queue.hh"

#include <utility>

#include "logging.hh"
#include "obs/stats.hh"

namespace pktchase
{

void
EventQueue::siftUp(std::size_t i)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!earlier(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t left = 2 * i + 1;
        if (left >= n)
            break;
        std::size_t best = left;
        std::size_t right = left + 1;
        if (right < n && earlier(heap_[right], heap_[left]))
            best = right;
        if (!earlier(heap_[best], heap_[i]))
            break;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
}

EventQueue::Entry
EventQueue::popTop()
{
    Entry top = std::move(heap_[0]);
    heap_[0] = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
    return top;
}

void
EventQueue::schedule(Cycles when, Callback cb)
{
    if (when < now_)
        panic("EventQueue::schedule into the past");
    heap_.push_back(Entry{when, nextSeq_++, std::move(cb)});
    siftUp(heap_.size() - 1);
}

void
EventQueue::scheduleAfter(Cycles delta, Callback cb)
{
    schedule(now_ + delta, std::move(cb));
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    Entry e = popTop();
    now_ = e.when;
    obs::bump(obs::Stat::SimEvents);
    e.cb();
    return true;
}

std::size_t
EventQueue::runUntil(Cycles horizon)
{
    std::size_t executed = 0;
    while (!heap_.empty() && heap_[0].when <= horizon) {
        step();
        ++executed;
    }
    if (now_ < horizon)
        now_ = horizon;
    return executed;
}

} // namespace pktchase
