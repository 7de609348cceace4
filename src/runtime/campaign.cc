#include "campaign.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>
#include <thread>

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace pktchase::runtime
{

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("PKTCHASE_THREADS")) {
        // All digits and in [1, UINT_MAX]: a bare strtol would read
        // "2abc" as 2 and wrap "4294967298" to 2.
        const bool digits =
            *env != '\0' && env[std::strspn(env, "0123456789")] == '\0';
        errno = 0;
        const unsigned long long n =
            digits ? std::strtoull(env, nullptr, 10) : 0;
        if (errno == 0 && n >= 1 && n <= UINT_MAX)
            return static_cast<unsigned>(n);
        warn("ignoring invalid PKTCHASE_THREADS value");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 4 ? hw : 4;
}

Campaign::Campaign(const CampaignConfig &cfg)
    : cfg_(cfg)
{
}

std::vector<ScenarioResult>
Campaign::run(const std::vector<Scenario> &grid)
{
    std::vector<std::size_t> all(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        all[i] = i;
    return run(grid, all);
}

std::vector<ScenarioResult>
Campaign::run(const std::vector<Scenario> &grid,
              const std::vector<std::size_t> &subset)
{
    const auto t0 = std::chrono::steady_clock::now();

    for (std::size_t k = 0; k < subset.size(); ++k) {
        if (subset[k] >= grid.size())
            fatal("Campaign: subset index out of range");
        if (k > 0 && subset[k] <= subset[k - 1])
            fatal("Campaign: subset must be strictly increasing");
    }

    // The schedulable unit is one (cell, task) pair: monolithic cells
    // contribute one unit, decomposed cells Scenario::tasks units.
    // Units are flattened in (cell, task) order, so cell k's units are
    // the contiguous range [first[k], first[k + 1]).
    struct TaskUnit
    {
        std::size_t slot; ///< Position in subset / results.
        std::size_t task; ///< Task index within the cell.
    };
    std::vector<TaskUnit> units;
    std::vector<std::size_t> first(subset.size() + 1, 0);
    for (std::size_t k = 0; k < subset.size(); ++k) {
        const Scenario &sc = grid[subset[k]];
        validateScenario(sc);
        for (std::size_t t = 0; t < sc.taskCount(); ++t)
            units.push_back({k, t});
        first[k + 1] = units.size();
    }

    unsigned threads = cfg_.threads ? cfg_.threads : defaultThreads();
    if (threads > units.size() && !units.empty())
        threads = static_cast<unsigned>(units.size());

    stats_ = CampaignStats{};
    stats_.threadsUsed = threads ? threads : 1;

    std::vector<ScenarioResult> results(subset.size());

    // Seeding uses the *full-grid* index, so a subset (shard) run
    // produces bit-identical cells to the same positions of an
    // unsharded run. Units run start-to-finish on one thread, so the
    // thread-local counter delta around the run is exactly this
    // task's work -- independent of which worker ran it or what ran
    // before; foldScenarioParts sums the per-task deltas into the
    // cell's counters.
    auto runUnit = [&](std::size_t slot, std::size_t task) {
        const std::size_t index = subset[slot];
        const Scenario &sc = grid[index];
        // Profile windows bracket the unit exactly like the counter
        // snapshot: discard whatever accumulated since the thread's
        // last unit, run, then drain this unit's stats into the
        // result. Units run start-to-finish on one thread, so the
        // drained window is exactly this task's spans regardless of
        // which worker ran it.
        const bool prof = obs::profiling();
        if (prof)
            obs::drainProfile();
        const obs::StatSnapshot before = obs::snapshot();
        ScenarioResult r;
        if (sc.decomposed()) {
            static const obs::ProfilePhase kTaskPhase{"fabric.task",
                                                      "fabric.task"};
            const obs::ScopedSpan span(
                sc.name + "#" + std::to_string(task), kTaskPhase);
            r = runScenarioTask(sc, index, cfg_.seed, task);
        } else {
            static const obs::ProfilePhase kCellPhase{"cell", "cell"};
            const obs::ScopedSpan span(sc.name, kCellPhase);
            r = runScenarioTask(sc, index, cfg_.seed, task);
        }
        r.counters = (obs::snapshot() - before).toCounters();
        if (prof)
            r.profile = obs::drainProfile();
        return r;
    };

    // Fold a cell's ordered parts into results[slot], then report it.
    // Both paths call this on the thread that called run(): fold is
    // pure, so where it runs cannot change a result, and onResult
    // callbacks never need to synchronize.
    auto finishCell = [&](std::size_t slot,
                          std::vector<ScenarioResult> &&parts) {
        results[slot] = foldScenarioParts(grid[subset[slot]],
                                          subset[slot],
                                          std::move(parts));
        if (cfg_.onResult)
            cfg_.onResult(results[slot]);
    };

    if (threads <= 1) {
        // Serial reference path: units in (cell, task) order, same
        // per-unit seeding and snapshot windows as the parallel path,
        // trivial merge.
        for (std::size_t k = 0; k < subset.size(); ++k) {
            const std::size_t count = grid[subset[k]].taskCount();
            std::vector<ScenarioResult> parts;
            parts.reserve(count);
            for (std::size_t t = 0; t < count; ++t)
                parts.push_back(runUnit(k, t));
            finishCell(k, std::move(parts));
        }
        stats_.scenariosRun = subset.size();
        stats_.tasksRun = units.size();
        stats_.wallSeconds = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        return results;
    }

    // Parallel path: one shared cursor over the units in (cell, task)
    // order. A worker claims unit u with a fetch_add and writes its
    // result into the preallocated parts[u]; then, under the mutex, it
    // counts down the cell's outstanding tasks, and the worker that
    // finishes a cell's last task queues the cell and wakes this
    // thread. Each part is written before its worker takes the mutex,
    // and this thread reads a cell's parts only after taking it, so
    // the handoff needs no other synchronization.
    std::vector<ScenarioResult> parts(units.size());
    std::atomic<std::size_t> cursor{0};

    std::mutex mu; ///< Guards remaining and ready.
    std::vector<std::size_t> remaining(subset.size());
    for (std::size_t k = 0; k < subset.size(); ++k)
        remaining[k] = first[k + 1] - first[k];
    std::vector<std::size_t> ready; ///< Cells with every part written.
    std::condition_variable cellReady;

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
        workers.emplace_back([&, w] {
            obs::attachWorkerThread(w);
            for (std::size_t u = cursor.fetch_add(1); u < units.size();
                 u = cursor.fetch_add(1)) {
                const std::size_t slot = units[u].slot;
                parts[u] = runUnit(slot, units[u].task);
                const std::lock_guard<std::mutex> lock(mu);
                if (--remaining[slot] == 0) {
                    ready.push_back(slot);
                    cellReady.notify_one();
                }
            }
            obs::detachWorkerThread();
        });
    }

    // Fold each cell once its last part lands. Completion order is
    // scheduling-dependent; the fold input order (task index) and the
    // merge order (slot) are not.
    std::vector<std::size_t> batch;
    for (std::size_t folded = 0; folded < subset.size();
         folded += batch.size()) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(mu);
            cellReady.wait(lock, [&] { return !ready.empty(); });
            batch.swap(ready);
        }
        for (std::size_t k : batch)
            finishCell(k, std::vector<ScenarioResult>(
                              std::make_move_iterator(
                                  parts.begin() + first[k]),
                              std::make_move_iterator(
                                  parts.begin() + first[k + 1])));
    }

    for (std::thread &t : workers)
        t.join();

    stats_.scenariosRun = subset.size();
    stats_.tasksRun = units.size();
    stats_.wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    return results;
}

} // namespace pktchase::runtime
