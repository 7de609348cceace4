/**
 * @file
 * Defense-evaluation harness: assembles testbeds for named defense
 * cells (defense::Cell = ring spec x cache spec, built by
 * defense::makeRingPolicy() and makeCachePolicy()) and runs the
 * Sec. VII workloads.
 *
 * The grids are data-driven: each figure is a list of spec strings
 * crossed into scenario cells, so adding a defense point to an
 * experiment is one list entry, not a new struct and a new switch arm.
 * Scenario cell names embed the canonical cell spec as their final
 * path segment ("fig16/ring.partial:1000+cache.ddio"), so a result's
 * name round-trips through defense::parseCell().
 */

#ifndef PKTCHASE_WORKLOAD_DEFENSE_EVAL_HH
#define PKTCHASE_WORKLOAD_DEFENSE_EVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "defense/registry.hh"
#include "runtime/scenario.hh"
#include "workload/io_workloads.hh"
#include "workload/server.hh"

namespace pktchase::workload
{

/**
 * Build a full-size testbed configuration with geometry @p geom and
 * the given defense specs (see defense/registry.hh).
 */
testbed::TestbedConfig
makeDefenseConfig(const std::string &cache_spec,
                  const cache::Geometry &geom,
                  const std::string &ring_spec = "ring.none",
                  const std::string &nic_spec = "");

/** Fig. 14: peak Nginx throughput for one (cache spec, geometry) cell. */
ServerMetrics nginxThroughput(const std::string &cache_spec,
                              const cache::Geometry &geom,
                              std::size_t requests,
                              const ServerConfig &scfg = ServerConfig{});

/** Fig. 15 rows: one I/O workload under one cache spec. */
IoMetrics fileCopyMetrics(const std::string &cache_spec, Addr bytes);
IoMetrics tcpRecvMetrics(const std::string &cache_spec,
                         std::uint64_t packets);

/** Fig. 16: open-loop latency under one defense cell. */
LatencyResult
nginxLatency(const defense::Cell &cell, double rate,
             std::size_t requests,
             const ServerConfig &scfg = ServerConfig{});

// ------------------------------------------------------------------
// Scenario grids for the parallel campaign runtime. Each cell owns a
// private Testbed; its workload seed is split off the campaign seed so
// that cells which must be compared under identical load (e.g. DDIO
// vs. adaptive at the same LLC size in Fig. 14) share a stream while
// everything else stays independent.
// ------------------------------------------------------------------

/** The latency-percentile metric keys the latency grids emit, in order. */
extern const std::vector<std::string> kPercentileKeys;

/** Set the kPercentileKeys metrics (ms) of @p lat on @p r. */
void setLatencyPercentiles(runtime::ScenarioResult &r,
                           const LatencyResult &lat);

/** The five defense cells of the paper's Fig. 16. */
std::vector<defense::Cell> fig16Cells();

/**
 * Extended defense cells beyond the paper: the intra-page offset and
 * quarantine ring policies and the way-restricted DDIO cache policy,
 * alone and crossed.
 */
std::vector<defense::Cell> extendedCells();

/**
 * Generic open-loop latency grid over @p cells, named
 * "<prefix>/<cell name>". Metrics per cell: p50/p90/p99/p99_9/p99_99
 * (ms) plus the server metrics. All cells share one workload seed --
 * defenses are compared under the same arrival process.
 */
std::vector<runtime::Scenario>
latencyGrid(const std::vector<defense::Cell> &cells, double rate,
            std::size_t requests, const std::string &prefix);

/**
 * Fig. 14 grid: {20, 11, 8} MB LLC x {DDIO, adaptive partitioning}.
 * Metrics per cell: kreq_per_sec, llc_miss_rate. Cells at the same
 * LLC size share a workload seed so the reported loss is noise-free.
 */
std::vector<runtime::Scenario> fig14ThroughputGrid(std::size_t requests);

/**
 * Fig. 15 grid: {file copy, TCP recv, Nginx} x {No-DDIO, DDIO,
 * adaptive}. Metrics per cell: mem_read_blocks, mem_write_blocks,
 * llc_miss_rate.
 */
std::vector<runtime::Scenario>
fig15TrafficGrid(Addr copy_bytes = Addr(32) << 20,
                 std::uint64_t packets = 40000,
                 std::size_t requests = 2000);

/** Fig. 16 grid: latencyGrid over fig16Cells(), prefix "fig16". */
std::vector<runtime::Scenario> fig16LatencyGrid(double rate,
                                                std::size_t requests);

/** Extended grid: latencyGrid over extendedCells(), prefix "fig16x". */
std::vector<runtime::Scenario> extendedLatencyGrid(double rate,
                                                   std::size_t requests);

/** The queue counts the multi-queue grids sweep. */
std::vector<std::size_t> queueSweepCounts();

/**
 * Multi-queue defense cells: the paper's most interesting ring
 * defenses crossed with every queueSweepCounts() entry (the
 * single-queue cells reproduce the paper's numbers; the others ask
 * what the defense costs once frames are steered across rings).
 */
std::vector<defense::Cell> fig16qCells();

/**
 * fig16q grid: open-loop latency over fig16qCells(). All cells share
 * one workload seed, so queue counts and defenses are compared under
 * the same arrival process.
 */
std::vector<runtime::Scenario> fig16qLatencyGrid(double rate,
                                                 std::size_t requests);

/**
 * fig7q grid: the Fig. 7 receive-footprint scan per queue count. Each
 * cell pumps an RSS-spread multi-flow mix through a reduced testbed,
 * scans every page-aligned combo, and reports how much of the
 * (now multi-ring) buffer footprint the spy recovers: active combos,
 * recovered candidates, recall, and the per-queue candidate counts.
 */
std::vector<runtime::Scenario> fig7qFootprintGrid(std::uint64_t frames);

/**
 * Register the defense grids ("fig14", "fig15", "fig16", "fig16x",
 * "fig16q", "fig7q") with the scenario registry so campaign
 * front-ends can run them by name.
 */
void registerDefenseScenarios();

} // namespace pktchase::workload

#endif // PKTCHASE_WORKLOAD_DEFENSE_EVAL_HH
