/**
 * @file
 * A minimal discrete-event simulation kernel.
 *
 * The attack experiments interleave two independent activities — packet
 * arrivals paced by the network line rate, and attacker probes paced by
 * the probe rate — plus optional background noise. The EventQueue orders
 * these by cycle with a stable FIFO tie-break so runs are deterministic.
 *
 * The heap is hand-rolled over a flat vector so that popping an event
 * *moves* its callback out instead of copying it (std::priority_queue
 * only exposes a const top(), which forced a std::function copy — and
 * usually a heap allocation — per executed event). Because every entry
 * carries a unique (when, seq) key, the execution order is the total
 * order of that key and is independent of the heap's internal layout.
 */

#ifndef PKTCHASE_SIM_EVENT_QUEUE_HH
#define PKTCHASE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "types.hh"

namespace pktchase
{

/**
 * Cycle-ordered event queue with deterministic tie-breaking.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule @p cb to run at absolute cycle @p when. */
    void schedule(Cycles when, Callback cb);

    /** Schedule @p cb to run @p delta cycles after the current time. */
    void scheduleAfter(Cycles delta, Callback cb);

    /**
     * Run events until the queue is empty or the simulated time would
     * exceed @p horizon.
     *
     * @param horizon Latest cycle (inclusive) to execute events for.
     * @return Number of events executed.
     */
    std::size_t runUntil(Cycles horizon);

    /** Execute a single event if one exists; returns false when empty. */
    bool step();

    /** Current simulated time in cycles. */
    Cycles now() const { return now_; }

    /** Whether any events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

  private:
    struct Entry
    {
        Cycles when;
        std::uint64_t seq;
        Callback cb;
    };

    /** True when @p a executes before @p b (min-heap order). */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Move the earliest entry out of the heap. */
    Entry popTop();

    std::vector<Entry> heap_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace pktchase

#endif // PKTCHASE_SIM_EVENT_QUEUE_HH
