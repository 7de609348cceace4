#include "probes.hh"

#include <chrono>

#include "cache/geometry.hh"
#include "defense/registry.hh"
#include "detect/detector.hh"
#include "mem/address_space.hh"
#include "runtime/scenario.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "testbed/testbed.hh"
#include "workload/attack_eval.hh"
#include "workload/defense_eval.hh"
#include "workload/detect_eval.hh"
#include "workload/server.hh"

using namespace pktchase;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Keeps timed results observable so the loops are not folded away. */
volatile std::uint64_t g_sink = 0;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Median over @p reps runs of @p body (which does @p ops operations
 *  and returns a checksum) of the host nanoseconds per operation. */
template <typename Body>
double
nsPerOp(std::size_t ops, int reps, Body &&body)
{
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        g_sink = g_sink + body();
        per.push_back(nsSince(t0) / static_cast<double>(ops));
    }
    return percentile(per, 50.0);
}

constexpr int kReps = 5;
constexpr std::size_t kCacheOps = 400000;

testbed::TestbedConfig
attackConfig(const defense::Cell &cell)
{
    testbed::TestbedConfig cfg;
    cfg.ringDefense = cell.ring;
    cfg.cacheDefense = cell.cache;
    cfg.nicSpec = cell.nic;
    return cfg;
}

testbed::TestbedConfig
serverConfig(const defense::Cell &cell)
{
    return workload::makeDefenseConfig(
        cell.cache, cache::Geometry::xeonE52660(), cell.ring, cell.nic);
}

testbed::TestbedConfig
reducedConfig(std::size_t queues)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.nicSpec = defense::nicSpecOf(queues);
    return cfg;
}

/** One testbed configuration per cell of @p grid, as its cells build
 *  them (the builders keep these configs private, so they are restated
 *  here from the public cell lists). */
void
appendGridConfigs(const std::string &grid,
                  std::vector<testbed::TestbedConfig> &out)
{
    const defense::Cell ddio{"ring.none", "cache.ddio"};
    if (grid == "fig14") {
        const cache::Geometry geoms[] = {cache::Geometry::xeonE52660(),
                                         cache::Geometry::llc11MB(),
                                         cache::Geometry::llc8MB()};
        for (const cache::Geometry &g : geoms)
            for (const char *spec : {"cache.ddio", "cache.adaptive"})
                out.push_back(workload::makeDefenseConfig(spec, g));
    } else if (grid == "fig15") {
        for (int kind = 0; kind < 3; ++kind)
            for (const char *spec :
                 {"cache.no-ddio", "cache.ddio", "cache.adaptive"})
                out.push_back(serverConfig({"ring.none", spec}));
    } else if (grid == "fig16" || grid == "fig16x" || grid == "fig16q") {
        const std::vector<defense::Cell> cells = grid == "fig16"
            ? workload::fig16Cells()
            : grid == "fig16x" ? workload::extendedCells()
                               : workload::fig16qCells();
        for (const defense::Cell &c : cells)
            out.push_back(serverConfig(c));
    } else if (grid == "fig11") {
        for (int cell = 0; cell < 6; ++cell)
            out.push_back(attackConfig(ddio));
    } else if (grid == "fig13") {
        for (std::size_t q : workload::attackQueueCounts()) {
            defense::Cell c = ddio;
            c.nic = defense::nicSpecOf(q);
            for (int rate = 0; rate < 3; ++rate)
                out.push_back(attackConfig(c));
        }
    } else if (grid == "fig20") {
        for (const defense::Cell &c : workload::fig20Cells())
            out.push_back(attackConfig(c));
    } else if (grid == "fig7q") {
        for (std::size_t q : workload::queueSweepCounts())
            out.push_back(reducedConfig(q));
    } else if (grid == "figD1") {
        const std::size_t detectors = detect::detectorNames().size();
        for (std::size_t d = 0; d < detectors; ++d) {
            for (std::size_t r = 0; r < workload::figD1ProbeRates().size();
                 ++r)
                for (std::size_t q : workload::figD1QueueCounts())
                    out.push_back(reducedConfig(q));
            out.push_back(serverConfig(ddio));
        }
    } else if (grid == "figD2") {
        for (const defense::Cell &c : workload::figD2Cells()) {
            out.push_back(serverConfig(c));
            out.push_back(attackConfig(c));
        }
    }
}

/** Median Testbed construction time over the workload's configs. */
double
testbedBuildMs(const std::vector<testbed::TestbedConfig> &cfgs)
{
    std::vector<double> ms;
    for (const testbed::TestbedConfig &cfg : cfgs) {
        const Clock::time_point t0 = Clock::now();
        {
            testbed::Testbed tb(cfg);
            g_sink = g_sink + tb.config().seed;
        }
        ms.push_back(nsSince(t0) / 1e6);
    }
    return ms.empty() ? 0.0 : percentile(ms, 50.0);
}

/** The cache probes' world: a testbed plus the server model's object
 *  store and response pool mapped into a victim address space. */
struct CacheWorld
{
    testbed::Testbed tb;
    mem::AddressSpace space;
    workload::ServerConfig scfg;
    Addr hotBase = 0;
    Addr respBase = 0;
    Cycles now = 0;
    static constexpr std::size_t kRespPages = 64;

    explicit CacheWorld(const testbed::TestbedConfig &cfg)
        : tb(cfg), space(tb.phys(), mem::Owner::Victim)
    {
        hotBase = space.mmap(scfg.hotPages);
        respBase = space.mmap(kRespPages);
    }

    /** Zipf-hot object-store block addresses, as serveOne draws them. */
    std::vector<Addr>
    hotVaddrs(std::uint64_t seed, std::size_t n) const
    {
        Rng rng(seed);
        std::vector<Addr> v(n);
        for (Addr &a : v) {
            const Addr page = rng.nextZipf(scfg.hotPages, scfg.zipfExponent);
            a = hotBase + page * pageBytes +
                rng.nextBounded(blocksPerPage) * blockBytes;
        }
        return v;
    }

    /** Simulated time of the next access: one LLC hit after the last. */
    Cycles
    tick()
    {
        return now += tb.hier().config().llcHitLatency;
    }

    /** Touch every object-store block once so timed reads see a warm
     *  LLC rather than cold fills. */
    void
    warm()
    {
        for (std::size_t p = 0; p < scfg.hotPages; ++p)
            for (Addr b = 0; b < blocksPerPage; ++b)
                tb.hier().cpuRead(
                    space.translate(hotBase + p * pageBytes +
                                    b * blockBytes),
                    tick());
    }
};

double
cpuReadNs(const testbed::TestbedConfig &cfg, std::uint64_t seed)
{
    CacheWorld w(cfg);
    std::vector<Addr> paddrs = w.hotVaddrs(seed, kCacheOps);
    for (Addr &a : paddrs)
        a = w.space.translate(a);
    w.warm();
    cache::Hierarchy &h = w.tb.hier();
    return nsPerOp(paddrs.size(), kReps, [&] {
        std::uint64_t hits = 0;
        for (Addr a : paddrs)
            hits += h.cpuRead(a, w.tick());
        return hits;
    });
}

} // namespace

ProbeResults
runLayerProbes(const std::vector<std::string> &grids, std::uint64_t seed,
               bool server)
{
    ProbeResults r;

    std::vector<testbed::TestbedConfig> cfgs;
    for (const std::string &g : grids)
        appendGridConfigs(g, cfgs);
    r.testbedConfigs = cfgs.size();
    r.testbedBuildMs = testbedBuildMs(cfgs);

    // The cache probes run on the testbed the workload's heaviest cells
    // build: the server model's defense config, or the attack testbed.
    auto cacheConfig = [server](const char *spec) {
        return server ? serverConfig({"ring.none", spec})
                      : attackConfig({"ring.none", spec});
    };
    r.cpuReadNs = cpuReadNs(cacheConfig("cache.ddio"), seed);
    r.cpuReadAdaptiveNs = cpuReadNs(cacheConfig("cache.adaptive"), seed);

    {
        CacheWorld w(cacheConfig("cache.ddio"));
        w.warm();
        cache::Hierarchy &h = w.tb.hier();

        // Response construction: writesPerRequest blocks into a page of
        // the rotating response pool, as serveOne writes them.
        std::vector<Addr> writes;
        for (std::size_t i = 0; writes.size() < kCacheOps; ++i) {
            const std::size_t page = i % CacheWorld::kRespPages;
            for (unsigned b = 0; b < w.scfg.writesPerRequest; ++b)
                writes.push_back(w.space.translate(
                    w.respBase + page * pageBytes +
                    (b % blocksPerPage) * blockBytes));
        }
        for (Addr a : writes)
            h.cpuWrite(a, w.tick());
        r.cpuWriteNs = nsPerOp(writes.size(), kReps, [&] {
            std::uint64_t hits = 0;
            for (Addr a : writes)
                hits += h.cpuWrite(a, w.tick());
            return hits;
        });

        // NIC DMA: one request-sized frame per write, into buffers at
        // the response pool's page bases.
        std::vector<Addr> buffers;
        for (std::size_t p = 0; p < CacheWorld::kRespPages; ++p)
            buffers.push_back(w.space.translate(w.respBase + p * pageBytes));
        const std::size_t frames = kCacheOps / 8;
        r.dmaWriteNs = nsPerOp(frames, kReps, [&] {
            for (std::size_t i = 0; i < frames; ++i)
                h.dmaWrite(buffers[i % buffers.size()],
                           w.scfg.requestFrameBytes, w.tick());
            return std::uint64_t(frames);
        });

        const std::vector<Addr> vaddrs = w.hotVaddrs(seed, kCacheOps);
        r.translateNs = nsPerOp(vaddrs.size(), kReps, [&] {
            std::uint64_t sum = 0;
            for (Addr a : vaddrs)
                sum += w.space.translate(a);
            return sum;
        });

        Rng rng(seed);
        r.zipfNs = nsPerOp(kCacheOps, kReps, [&] {
            std::uint64_t sum = 0;
            for (std::size_t i = 0; i < kCacheOps; ++i)
                sum += rng.nextZipf(w.scfg.hotPages, w.scfg.zipfExponent);
            return sum;
        });
    }

    const std::size_t events = 200000;
    r.eventNs = nsPerOp(events, kReps, [&] {
        EventQueue eq;
        std::uint64_t fired = 0;
        for (std::size_t i = 0; i < events; ++i)
            eq.schedule(Cycles(i) * 10 + 1, [&fired] { ++fired; });
        eq.runUntil(Cycles(events) * 10 + 10);
        return fired;
    });

    if (server) {
        auto serve = [seed](const char *spec) {
            testbed::Testbed tb(serverConfig({"ring.none", spec}));
            workload::ServerConfig scfg;
            scfg.seed = runtime::splitSeed(seed, runtime::axisSalt(0x16));
            workload::ServerWorkload srv(tb, scfg);
            Cycles t = tb.eq().now();
            for (int i = 0; i < 500; ++i)
                t += srv.serveOne(t);
            const std::size_t requests = 600;
            return nsPerOp(requests, kReps, [&] {
                       for (std::size_t i = 0; i < requests; ++i)
                           t += srv.serveOne(t);
                       return std::uint64_t(t);
                   }) / 1e3;
        };
        r.serveDdioUs = serve("cache.ddio");
        r.serveAdaptiveUs = serve("cache.adaptive");
        r.serveUs = 0.5 * (r.serveDdioUs + r.serveAdaptiveUs);
    }
    return r;
}

} // namespace perfbench
