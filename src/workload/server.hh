/**
 * @file
 * Request-level Nginx model for the defense evaluation (Sec. VII).
 *
 * Each HTTP request is: a request frame through the NIC receive path,
 * application work over a Zipf-distributed hot object store plus
 * response-buffer writes, with service time composed of a fixed CPU
 * budget plus the measured latency of every memory access (so LLC
 * behaviour -- DDIO hits, partition pressure, randomization-induced
 * cold buffers -- directly moves throughput and latency), plus an
 * explicit driver cost for every rx-buffer reallocation a software
 * defense performs.
 *
 * Closed-loop runs give peak throughput (Fig. 14); open-loop runs at a
 * target arrival rate give the wrk2-style latency percentiles
 * (Fig. 16); the hierarchy counters give memory traffic and miss rate
 * (Fig. 15).
 */

#ifndef PKTCHASE_WORKLOAD_SERVER_HH
#define PKTCHASE_WORKLOAD_SERVER_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "testbed/testbed.hh"

namespace pktchase::workload
{

/** Server model parameters. */
struct ServerConfig
{
    /** Hot object store, in pages (sized near the LLC). */
    std::size_t hotPages = 4800;
    double zipfExponent = 0.6;

    unsigned readsPerRequest = 220;   ///< Object-store accesses.
    unsigned writesPerRequest = 40;   ///< Response construction.
    Cycles baseCyclesPerRequest = 9000; ///< Non-memory CPU work.

    /** Driver-side cost of allocating a fresh rx buffer page. */
    Cycles reallocPenaltyCycles = 2600;

    /**
     * Driver-side cost of rotating a page through a policy-owned pool
     * (no allocator round-trip, so far cheaper than a reallocation).
     */
    Cycles swapPenaltyCycles = 400;

    Addr requestFrameBytes = 256;     ///< Inbound HTTP request size.
    std::uint64_t seed = 29;
};

/** Aggregate metrics of a run. */
struct ServerMetrics
{
    double kiloRequestsPerSec = 0.0;
    double llcMissRate = 0.0;          ///< CPU-side LLC miss fraction.
    std::uint64_t memReadBlocks = 0;
    std::uint64_t memWriteBlocks = 0;
    std::uint64_t requests = 0;
};

/** Latency distribution of an open-loop run. */
struct LatencyResult
{
    std::vector<double> latenciesMs;  ///< Per-request, warmup dropped.
    ServerMetrics metrics;

    double percentile(double p) const;
};

/**
 * The server workload, bound to an assembled testbed.
 */
class ServerWorkload
{
  public:
    ServerWorkload(testbed::Testbed &tb, const ServerConfig &cfg);

    /**
     * Closed loop: requests processed back-to-back.
     * @return Peak-throughput metrics over @p n requests.
     */
    ServerMetrics closedLoop(std::size_t n);

    /**
     * Open loop at @p rate requests/second (Poisson arrivals, single
     * FIFO server), for Fig. 16 tail latencies.
     *
     * @param warmup Requests discarded before recording latencies.
     */
    LatencyResult openLoop(double rate, std::size_t n,
                           std::size_t warmup = 200);

    /** Service one request starting at @p now; returns service cycles. */
    Cycles serveOne(Cycles now);

  private:
    testbed::Testbed &tb_;
    ServerConfig cfg_;
    Rng rng_;
    ZipfTable zipf_; ///< Object-store ranks for (hotPages, zipfExponent).
    mem::AddressSpace appSpace_;
    Addr hotBase_ = 0;
    Addr respBase_ = 0;

    /**
     * Connection counter: each request arrives on its own flow, so
     * RSS spreads the request stream across every receive queue. At
     * one queue the flow id is inert and the receive path matches the
     * single-ring model draw for draw.
     */
    std::uint32_t nextFlow_ = 0;
    static constexpr std::size_t respPages_ = 64;
    std::size_t respCursor_ = 0;

    /** Counter snapshot for miss/traffic accounting. */
    struct Snapshot
    {
        std::uint64_t cpuAccesses, cpuMisses, memReads, memWrites;
    };
    Snapshot snap() const;
    ServerMetrics metricsSince(const Snapshot &s0, Cycles cycles,
                               std::size_t requests) const;
};

} // namespace pktchase::workload

#endif // PKTCHASE_WORKLOAD_SERVER_HH
