/**
 * @file
 * Attacker-side scenario grids for the parallel campaign runtime: the
 * attacker experiments (covert channel, packet-chasing channel,
 * web fingerprinting) as runtime::Scenario cells, next to the
 * defense-side grids of defense_eval.hh.
 *
 * Three grids:
 *
 *  - "fig11": fixed-buffer covert channel, encoding x probe rate
 *    (paper Fig. 11: bandwidth flat, error falls with probe rate);
 *  - "fig13": packet-chasing channel error/capacity across target
 *    bandwidths and NIC queue counts (the paper's Fig. 12c/d axis,
 *    extended with the multi-queue NIC);
 *  - "fig20": closed-world fingerprint accuracy across defense cells
 *    and queue counts -- the paper's headline Sec. V numbers swept
 *    over every layer this codebase can vary.
 *
 * Every cell assembles a private Testbed and draws randomness only
 * from seeds split off the campaign seed, so the grids inherit the
 * campaign determinism contract (threads=N bit-identical to serial).
 *
 * All three grids opt into the sub-cell task decomposition contract
 * (src/runtime/scenario.hh): fig20 cells split into one task per
 * classification trial; fig11/fig13 cells split the LFSR symbol
 * stream into four chunks, each task transmitting its chunk's pinned
 * stream positions on a private testbed. Each task ships raw counts
 * (sites predicted, edit-alignment operations, on-wire spans) and the
 * pure fold re-derives the cell's rate metrics, so the folded report
 * carries the same keys in the same order as the monolithic cells
 * did, and threads=N == threads=1 == runScenarioMonolithic
 * (tests/task_golden_test.cc pins both figures).
 */

#ifndef PKTCHASE_WORKLOAD_ATTACK_EVAL_HH
#define PKTCHASE_WORKLOAD_ATTACK_EVAL_HH

#include <cstdint>
#include <vector>

#include "defense/registry.hh"
#include "fingerprint/attack.hh"
#include "runtime/scenario.hh"

namespace pktchase::workload
{

/** The queue counts the attacker grids sweep. */
std::vector<std::size_t> attackQueueCounts();

/**
 * The fig20 defense cells: the vulnerable baseline, DDIO off, the
 * paper's ring defenses, and adaptive partitioning, each crossed with
 * every attackQueueCounts() entry.
 */
std::vector<defense::Cell> fig20Cells();

/** Fingerprint parameters every fig20 cell runs (golden-pinned). */
fingerprint::FingerprintConfig fig20Config(std::uint64_t seed);

/** The paper's five-site closed world (signature seed included). */
fingerprint::WebsiteDb fig20Database();

/**
 * fig11 grid: {binary, ternary} x {7, 14, 28} kHz probe rate, under
 * background cache noise. Metrics per cell: bandwidth_bps,
 * error_rate, received, probe_rounds.
 */
std::vector<runtime::Scenario> fig11CovertGrid(std::size_t symbols);

/**
 * fig13 grid: chasing-channel target bandwidth x queue count.
 * Metrics per cell: error_rate, out_of_sync_rate, received,
 * probe_rounds.
 */
std::vector<runtime::Scenario> fig13ChannelGrid(std::size_t symbols);

/**
 * fig20 grid: fingerprint accuracy over fig20Cells(). Metrics per
 * cell: accuracy, correct, trials, probe_rounds.
 */
std::vector<runtime::Scenario> fig20FingerprintGrid();

/**
 * Register the attacker grids ("fig11", "fig13", "fig20") with the
 * scenario registry so campaign front-ends can run them by name.
 */
void registerAttackScenarios();

} // namespace pktchase::workload

#endif // PKTCHASE_WORKLOAD_ATTACK_EVAL_HH
