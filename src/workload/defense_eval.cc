#include "defense_eval.hh"

#include "attack/footprint.hh"
#include "net/traffic.hh"
#include "runtime/registry.hh"
#include "sim/logging.hh"

namespace pktchase::workload
{

testbed::TestbedConfig
makeDefenseConfig(const std::string &cache_spec,
                  const cache::Geometry &geom,
                  const std::string &ring_spec,
                  const std::string &nic_spec)
{
    testbed::TestbedConfig cfg;
    cfg.llc.geom = geom;
    cfg.cacheDefense = cache_spec;
    cfg.ringDefense = ring_spec;
    cfg.nicSpec = nic_spec;
    // The workload experiments never probe; kill measurement noise so
    // the performance numbers are stable run to run.
    cfg.hier.timerNoiseSigma = 0.0;
    cfg.hier.outlierProb = 0.0;
    // The object store plus streaming windows need more frames than
    // the attack experiments.
    cfg.physBytes = Addr(512) << 20;
    cfg.builder.poolPages = 16; // unused by the workloads
    return cfg;
}

ServerMetrics
nginxThroughput(const std::string &cache_spec,
                const cache::Geometry &geom, std::size_t requests,
                const ServerConfig &scfg)
{
    testbed::Testbed tb(makeDefenseConfig(cache_spec, geom));
    ServerWorkload server(tb, scfg);
    return server.closedLoop(requests);
}

IoMetrics
fileCopyMetrics(const std::string &cache_spec, Addr bytes)
{
    testbed::Testbed tb(
        makeDefenseConfig(cache_spec, cache::Geometry::xeonE52660()));
    return runFileCopy(tb, bytes);
}

IoMetrics
tcpRecvMetrics(const std::string &cache_spec, std::uint64_t packets)
{
    testbed::Testbed tb(
        makeDefenseConfig(cache_spec, cache::Geometry::xeonE52660()));
    return runTcpRecv(tb, packets);
}

LatencyResult
nginxLatency(const defense::Cell &cell, double rate,
             std::size_t requests, const ServerConfig &scfg)
{
    testbed::Testbed tb(makeDefenseConfig(
        cell.cache, cache::Geometry::xeonE52660(), cell.ring,
        cell.nic));
    ServerWorkload server(tb, scfg);
    return server.openLoop(rate, requests);
}

// ----------------------------------------------------- scenario grids --

namespace
{

/** Short cell-name fragment for a geometry. */
const char *
geomLabel(std::size_t geom_index)
{
    switch (geom_index) {
      case 0: return "llc20";
      case 1: return "llc11";
      case 2: return "llc8";
    }
    return "llc?";
}

const cache::Geometry &
geomOf(std::size_t geom_index)
{
    static const cache::Geometry geoms[3] = {
        cache::Geometry::xeonE52660(),
        cache::Geometry::llc11MB(),
        cache::Geometry::llc8MB(),
    };
    return geoms[geom_index < 3 ? geom_index : 0];
}

void
fillServerMetrics(runtime::ScenarioResult &r, const ServerMetrics &m)
{
    r.set("kreq_per_sec", m.kiloRequestsPerSec);
    r.set("llc_miss_rate", m.llcMissRate);
    r.set("mem_read_blocks", static_cast<double>(m.memReadBlocks));
    r.set("mem_write_blocks", static_cast<double>(m.memWriteBlocks));
}

} // namespace

std::vector<runtime::Scenario>
fig14ThroughputGrid(std::size_t requests)
{
    std::vector<runtime::Scenario> grid;
    for (std::size_t g = 0; g < 3; ++g) {
        for (const char *cache_spec : {"cache.ddio", "cache.adaptive"}) {
            const defense::Cell cell{"ring.none", cache_spec};
            std::string name = std::string("fig14/") + geomLabel(g) +
                               "/" + cell.name();
            grid.push_back({name,
                [g, cell, requests](runtime::ScenarioContext &ctx) {
                    ServerConfig scfg;
                    // Cells at the same LLC size share a workload
                    // stream so DDIO vs. adaptive is a paired
                    // comparison, as in the paper.
                    scfg.seed = runtime::splitSeed(ctx.campaignSeed,
                                                   runtime::axisSalt(g));
                    runtime::ScenarioResult r;
                    fillServerMetrics(r, nginxThroughput(
                        cell.cache, geomOf(g), requests, scfg));
                    return r;
                }});
        }
    }
    return grid;
}

std::vector<runtime::Scenario>
fig15TrafficGrid(Addr copy_bytes, std::uint64_t packets,
                 std::size_t requests)
{
    std::vector<runtime::Scenario> grid;
    const char *specs[] = {"cache.no-ddio", "cache.ddio",
                           "cache.adaptive"};
    for (const char *spec : specs) {
        const defense::Cell cell{"ring.none", spec};
        grid.push_back({"fig15/filecopy/" + cell.name(),
            [cell, copy_bytes](runtime::ScenarioContext &) {
                const IoMetrics m =
                    fileCopyMetrics(cell.cache, copy_bytes);
                runtime::ScenarioResult r;
                r.set("mem_read_blocks",
                      static_cast<double>(m.memReadBlocks));
                r.set("mem_write_blocks",
                      static_cast<double>(m.memWriteBlocks));
                r.set("llc_miss_rate", m.llcMissRate);
                return r;
            }});
    }
    for (const char *spec : specs) {
        const defense::Cell cell{"ring.none", spec};
        grid.push_back({"fig15/tcprecv/" + cell.name(),
            [cell, packets](runtime::ScenarioContext &) {
                const IoMetrics m = tcpRecvMetrics(cell.cache, packets);
                runtime::ScenarioResult r;
                r.set("mem_read_blocks",
                      static_cast<double>(m.memReadBlocks));
                r.set("mem_write_blocks",
                      static_cast<double>(m.memWriteBlocks));
                r.set("llc_miss_rate", m.llcMissRate);
                return r;
            }});
    }
    for (const char *spec : specs) {
        const defense::Cell cell{"ring.none", spec};
        grid.push_back({"fig15/nginx/" + cell.name(),
            [cell, requests](runtime::ScenarioContext &ctx) {
                ServerConfig scfg;
                scfg.seed = runtime::splitSeed(
                    ctx.campaignSeed, runtime::axisSalt(0x15));
                runtime::ScenarioResult r;
                fillServerMetrics(r, nginxThroughput(
                    cell.cache, cache::Geometry::xeonE52660(),
                    requests, scfg));
                return r;
            }});
    }
    return grid;
}

const std::vector<std::string> kPercentileKeys = {
    "p50", "p90", "p99", "p99_9", "p99_99",
};

void
setLatencyPercentiles(runtime::ScenarioResult &r,
                      const LatencyResult &lat)
{
    static const double kLevels[] = {50, 90, 99, 99.9, 99.99};
    for (std::size_t i = 0; i < kPercentileKeys.size(); ++i)
        r.set(kPercentileKeys[i], lat.percentile(kLevels[i]));
}

std::vector<defense::Cell>
fig16Cells()
{
    return {
        {"ring.none", "cache.ddio"},          // vulnerable baseline
        {"ring.full", "cache.ddio"},
        {"ring.partial:1000", "cache.ddio"},
        {"ring.partial:10000", "cache.ddio"},
        {"ring.none", "cache.adaptive"},
    };
}

std::vector<defense::Cell>
extendedCells()
{
    return {
        {"ring.offset", "cache.ddio"},
        {"ring.quarantine:16", "cache.ddio"},
        {"ring.none", "cache.ddio-ways:2"},
        {"ring.offset", "cache.ddio-ways:2"},
        {"ring.quarantine:16", "cache.adaptive"},
    };
}

std::vector<runtime::Scenario>
latencyGrid(const std::vector<defense::Cell> &cells, double rate,
            std::size_t requests, const std::string &prefix)
{
    std::vector<runtime::Scenario> grid;
    for (const defense::Cell &cell : cells) {
        grid.push_back({prefix + "/" + cell.name(),
            [cell, rate, requests](runtime::ScenarioContext &ctx) {
                ServerConfig scfg;
                // Every defense sees the same arrival process.
                scfg.seed = runtime::splitSeed(
                    ctx.campaignSeed, runtime::axisSalt(0x16));
                const LatencyResult lat =
                    nginxLatency(cell, rate, requests, scfg);
                runtime::ScenarioResult r;
                setLatencyPercentiles(r, lat);
                fillServerMetrics(r, lat.metrics);
                return r;
            }});
    }
    return grid;
}

std::vector<runtime::Scenario>
fig16LatencyGrid(double rate, std::size_t requests)
{
    return latencyGrid(fig16Cells(), rate, requests, "fig16");
}

std::vector<std::size_t>
queueSweepCounts()
{
    return {nic::kDefaultQueues, 2, 4};
}

std::vector<defense::Cell>
fig16qCells()
{
    std::vector<defense::Cell> cells;
    const defense::Cell bases[3] = {
        {"ring.none", "cache.ddio"},          // vulnerable baseline
        {"ring.full", "cache.ddio"},          // costliest defense
        {"ring.partial:1000", "cache.ddio"},  // the paper's sweet spot
    };
    for (std::size_t q : queueSweepCounts()) {
        for (const defense::Cell &base : bases) {
            defense::Cell cell = base;
            cell.nic = defense::nicSpecOf(q);
            cells.push_back(cell);
        }
    }
    return cells;
}

std::vector<runtime::Scenario>
fig16qLatencyGrid(double rate, std::size_t requests)
{
    return latencyGrid(fig16qCells(), rate, requests, "fig16q");
}

std::vector<runtime::Scenario>
fig7qFootprintGrid(std::uint64_t frames)
{
    std::vector<runtime::Scenario> grid;
    for (std::size_t queues : queueSweepCounts()) {
        const std::string nic_spec = defense::nicSpecOf(queues);
        grid.push_back({"fig7q/" + nic_spec,
            [queues, frames](runtime::ScenarioContext &ctx) {
                testbed::TestbedConfig cfg =
                    testbed::TestbedConfig::reduced();
                cfg.nicSpec = defense::nicSpecOf(queues);
                // Every queue count scans the same flow mix.
                const std::uint64_t seed = runtime::splitSeed(
                    ctx.campaignSeed, runtime::axisSalt(0x7));
                testbed::Testbed tb(cfg);

                // RSS-spread load: eight constant-rate connections
                // plus a many-flow Poisson background.
                auto mix = std::make_unique<net::FlowMix>();
                for (std::uint32_t f = 0; f < 8; ++f) {
                    mix->add(std::make_unique<net::ConstantStream>(
                        768, 40000.0, frames / 10,
                        nic::Protocol::Udp, 101 + 17 * f));
                }
                mix->add(std::make_unique<net::PoissonBackground>(
                    80000.0, Rng(seed), frames - 8 * (frames / 10),
                    64));
                net::TrafficPump pump(tb.eq(), tb.driver(),
                                      std::move(mix), 1000);

                std::vector<std::size_t> all;
                for (std::size_t c = 0; c < tb.groups().groups.size();
                     ++c)
                    all.push_back(c);
                attack::FootprintConfig fcfg;
                fcfg.probe.ways = cfg.llc.geom.ways; // reduced geometry
                attack::FootprintScanner scanner(
                    tb.hier(), tb.groups(), all, fcfg);
                const auto samples =
                    scanner.scan(tb.eq(), secondsToCycles(0.05));
                const auto candidates =
                    attack::FootprintScanner::candidateBufferSets(
                        samples, 0.05, 0.95);
                const auto per_queue =
                    attack::FootprintScanner::attributeToQueues(
                        candidates, tb.queueComboSequences());

                const auto active = tb.activeCombos();
                std::size_t recovered = 0;
                for (std::size_t cand : candidates) {
                    for (std::size_t a : active) {
                        if (a == cand) {
                            ++recovered;
                            break;
                        }
                    }
                }

                runtime::ScenarioResult r;
                r.set("queues", static_cast<double>(queues));
                r.set("active_combos",
                      static_cast<double>(active.size()));
                r.set("candidates",
                      static_cast<double>(candidates.size()));
                r.set("recall", active.empty() ? 0.0
                    : static_cast<double>(recovered) /
                        static_cast<double>(active.size()));
                double mean_per_queue = 0.0;
                for (const auto &qc : per_queue)
                    mean_per_queue += static_cast<double>(qc.size());
                r.set("mean_queue_candidates", per_queue.empty() ? 0.0
                    : mean_per_queue /
                        static_cast<double>(per_queue.size()));
                return r;
            }});
    }
    return grid;
}

std::vector<runtime::Scenario>
extendedLatencyGrid(double rate, std::size_t requests)
{
    return latencyGrid(extendedCells(), rate, requests, "fig16x");
}

void
registerDefenseScenarios()
{
    auto &reg = runtime::ScenarioRegistry::instance();
    reg.add("fig14",
            "Nginx throughput: DDIO vs. adaptive partitioning across "
            "LLC sizes",
            [] { return fig14ThroughputGrid(4000); });
    reg.add("fig15",
            "Memory traffic and miss rate of the Sec. VII I/O "
            "workloads per cache mode",
            [] { return fig15TrafficGrid(); });
    reg.add("fig16",
            "Open-loop response-latency percentiles per ring defense",
            [] { return fig16LatencyGrid(100000.0, 20000); });
    reg.add("fig16x",
            "Open-loop latency percentiles for the extended defense "
            "cells (offset, quarantine, way-restricted DDIO)",
            [] { return extendedLatencyGrid(100000.0, 20000); });
    reg.add("fig16q",
            "Queue-count x defense-cell sweep: open-loop latency of "
            "the ring defenses on a multi-queue RSS NIC",
            [] { return fig16qLatencyGrid(100000.0, 4000); });
    reg.add("fig7q",
            "Receive-footprint recovery per RSS queue count (the "
            "Fig. 7 scan against a multi-flow mix)",
            [] { return fig7qFootprintGrid(4000); });
}

} // namespace pktchase::workload
