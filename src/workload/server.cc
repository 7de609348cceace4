#include "server.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace pktchase::workload
{

double
LatencyResult::percentile(double p) const
{
    return pktchase::percentile(latenciesMs, p);
}

ServerWorkload::ServerWorkload(testbed::Testbed &tb,
                               const ServerConfig &cfg)
    : tb_(tb), cfg_(cfg), rng_(cfg.seed),
      zipf_(cfg.hotPages, cfg.zipfExponent),
      appSpace_(tb.phys(), mem::Owner::Victim)
{
    hotBase_ = appSpace_.mmap(cfg_.hotPages);
    respBase_ = appSpace_.mmap(respPages_);
}

ServerWorkload::Snapshot
ServerWorkload::snap() const
{
    const cache::LlcStats &s = tb_.hier().llc().stats();
    return Snapshot{
        s.cpuReads + s.cpuWrites,
        s.cpuReadMisses + s.cpuWriteMisses,
        tb_.hier().memReadBlocks(),
        tb_.hier().memWriteBlocks(),
    };
}

Cycles
ServerWorkload::serveOne(Cycles now)
{
    // One span per request: the frame's nic.deliver (and any
    // detect.epoch it publishes) nest inside it.
    static const obs::ProfilePhase kRequestPhase{"server.request",
                                                 "workload"};
    const obs::ScopedSpan span(kRequestPhase);
    const std::uint64_t reallocs_before =
        tb_.driver().stats().buffersReallocated;
    const std::uint64_t swaps_before =
        tb_.driver().stats().pageSwaps;

    // Inbound request through the NIC receive path. The driver's own
    // loads are untimed inside the model, so charge them here from the
    // stats delta: this is where DDIO pays off (header and payload
    // already in the LLC) and where the non-DDIO path stalls on DRAM.
    const cache::LlcStats &llc = tb_.hier().llc().stats();
    const std::uint64_t drv_reads0 = llc.cpuReads + llc.cpuWrites;
    const std::uint64_t drv_miss0 =
        llc.cpuReadMisses + llc.cpuWriteMisses;
    nic::Frame req;
    req.bytes = cfg_.requestFrameBytes;
    req.protocol = nic::Protocol::Tcp;
    req.flow = nextFlow_++;
    tb_.driver().receive(req, now);
    const std::uint64_t drv_accesses =
        llc.cpuReads + llc.cpuWrites - drv_reads0;
    const std::uint64_t drv_misses =
        llc.cpuReadMisses + llc.cpuWriteMisses - drv_miss0;

    Cycles t = now;
    t += (drv_accesses - drv_misses) *
        tb_.hier().config().llcHitLatency;
    t += drv_misses * tb_.hier().config().dramLatency;

    // Application phase: object-store lookups (Zipf-hot) ...
    for (unsigned i = 0; i < cfg_.readsPerRequest; ++i) {
        const Addr page = rng_.nextZipf(zipf_);
        const Addr block = rng_.nextBounded(blocksPerPage);
        const Addr vaddr =
            hotBase_ + page * pageBytes + block * blockBytes;
        t += tb_.hier().timedRead(appSpace_.translate(vaddr), t);
    }
    // ... and response construction into a rotating buffer pool.
    for (unsigned i = 0; i < cfg_.writesPerRequest; ++i) {
        const Addr vaddr = respBase_ + respCursor_ * pageBytes +
            (i % blocksPerPage) * blockBytes;
        const bool hit =
            tb_.hier().cpuWrite(appSpace_.translate(vaddr), t);
        t += hit ? tb_.hier().config().llcHitLatency
                 : tb_.hier().config().dramLatency;
    }
    respCursor_ = (respCursor_ + 1) % respPages_;

    // Software ring defenses pay the buffer reallocation path; pool
    // rotations (quarantine) are charged their cheaper swap cost.
    const std::uint64_t reallocs =
        tb_.driver().stats().buffersReallocated - reallocs_before;
    const std::uint64_t swaps =
        tb_.driver().stats().pageSwaps - swaps_before;
    t += reallocs * cfg_.reallocPenaltyCycles;
    t += swaps * cfg_.swapPenaltyCycles;

    t += cfg_.baseCyclesPerRequest;
    return t - now;
}

ServerMetrics
ServerWorkload::metricsSince(const Snapshot &s0, Cycles cycles,
                             std::size_t requests) const
{
    const Snapshot s1 = snap();
    ServerMetrics m;
    m.requests = requests;
    const double secs = cyclesToSeconds(cycles);
    m.kiloRequestsPerSec = secs > 0.0
        ? static_cast<double>(requests) / secs / 1000.0 : 0.0;
    const std::uint64_t accesses = s1.cpuAccesses - s0.cpuAccesses;
    m.llcMissRate = accesses > 0
        ? static_cast<double>(s1.cpuMisses - s0.cpuMisses) /
            static_cast<double>(accesses)
        : 0.0;
    m.memReadBlocks = s1.memReads - s0.memReads;
    m.memWriteBlocks = s1.memWrites - s0.memWrites;
    return m;
}

ServerMetrics
ServerWorkload::closedLoop(std::size_t n)
{
    // Short warmup fills the object store's cache footprint.
    Cycles t = tb_.eq().now();
    for (std::size_t i = 0; i < std::min<std::size_t>(n / 10, 500); ++i)
        t += serveOne(t);

    const Snapshot s0 = snap();
    const Cycles start = t;
    for (std::size_t i = 0; i < n; ++i)
        t += serveOne(t);
    return metricsSince(s0, t - start, n);
}

LatencyResult
ServerWorkload::openLoop(double rate, std::size_t n, std::size_t warmup)
{
    if (rate <= 0.0)
        fatal("ServerWorkload::openLoop needs a positive rate");

    LatencyResult result;
    Rng arrivals(cfg_.seed ^ 0x0A11u);
    Cycles arrival = tb_.eq().now();
    Cycles server_free = arrival;
    const Snapshot s0 = snap();
    const Cycles start = arrival;
    Cycles end = arrival;

    for (std::size_t i = 0; i < n; ++i) {
        arrival += secondsToCycles(arrivals.nextExponential(rate));
        const Cycles begin = std::max(arrival, server_free);
        const Cycles service = serveOne(begin);
        server_free = begin + service;
        end = server_free;
        if (i >= warmup) {
            const double ms =
                cyclesToSeconds(server_free - arrival) * 1e3;
            result.latenciesMs.push_back(ms);
        }
    }
    result.metrics = metricsSince(s0, end - start, n);
    return result;
}

} // namespace pktchase::workload
