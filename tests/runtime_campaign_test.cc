/**
 * @file
 * Tests for the campaign runtime: scenario seeding, the registry,
 * PKTCHASE_THREADS parsing, and the core determinism contract -- a
 * Campaign run on 8 worker threads merges to byte-identical stats as
 * the same campaign on 1 thread, with every fold and onResult callback
 * on the thread that called Campaign::run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/campaign.hh"
#include "runtime/registry.hh"
#include "runtime/scenario.hh"
#include "runtime/sweep.hh"
#include "testbed/testbed.hh"
#include "workload/defense_eval.hh"

using namespace pktchase;
using namespace pktchase::runtime;

namespace
{

/**
 * A grid of stochastic cells: each draws from its private Rng stream
 * and reports enough digits that any seeding or merge difference
 * between thread counts shows up in the hexfloat report.
 */
std::vector<Scenario>
stochasticGrid(std::size_t cells)
{
    std::vector<Scenario> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        grid.push_back({"cell/" + std::to_string(i),
            [](ScenarioContext &ctx) {
                double acc = 0.0;
                for (int k = 0; k < 1000; ++k)
                    acc += ctx.rng.nextDouble();
                ScenarioResult r;
                r.set("acc", acc);
                r.set("seed_lo",
                      static_cast<double>(ctx.scenarioSeed & 0xffff));
                return r;
            }});
    }
    return grid;
}

} // namespace

TEST(SplitSeed, IndependentPerSalt)
{
    // Distinct salts give distinct seeds; same (seed, salt) is stable.
    EXPECT_EQ(splitSeed(1, 0), splitSeed(1, 0));
    EXPECT_NE(splitSeed(1, 0), splitSeed(1, 1));
    EXPECT_NE(splitSeed(1, 0), splitSeed(2, 0));
    // Matches the splitmix64 stream Rng seed expansion uses.
    EXPECT_NE(splitSeed(0, 0), 0u);
}

TEST(ScenarioResult, MetricLookup)
{
    ScenarioResult r;
    r.name = "x";
    r.set("a", 1.5);
    r.set("b", -2.0);
    EXPECT_TRUE(r.has("a"));
    EXPECT_FALSE(r.has("c"));
    EXPECT_DOUBLE_EQ(r.value("a"), 1.5);
    EXPECT_DOUBLE_EQ(r.value("b"), -2.0);
}

TEST(ScenarioRegistry, AddMakeListReplace)
{
    auto &reg = ScenarioRegistry::instance();
    reg.add("test/grid", "a grid", [] { return stochasticGrid(3); });
    EXPECT_TRUE(reg.contains("test/grid"));
    EXPECT_EQ(reg.description("test/grid"), "a grid");
    EXPECT_EQ(reg.make("test/grid").size(), 3u);

    // Re-registering replaces.
    reg.add("test/grid", "bigger", [] { return stochasticGrid(5); });
    EXPECT_EQ(reg.make("test/grid").size(), 5u);

    const auto names = reg.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "test/grid"),
              names.end());
}

TEST(Campaign, SerialRunsEveryCellInOrder)
{
    CampaignConfig cfg;
    cfg.threads = 1;
    cfg.seed = 7;
    std::vector<std::size_t> seen;
    cfg.onResult = [&seen](const ScenarioResult &r) {
        seen.push_back(r.index);
    };
    Campaign c(cfg);
    const auto results = c.run(stochasticGrid(9));
    ASSERT_EQ(results.size(), 9u);
    ASSERT_EQ(seen.size(), 9u);
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(seen[i], i);
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].name, "cell/" + std::to_string(i));
    }
    EXPECT_EQ(c.stats().scenariosRun, 9u);
    EXPECT_EQ(c.stats().threadsUsed, 1u);
}

TEST(Campaign, EmptyGrid)
{
    Campaign c;
    EXPECT_TRUE(c.run({}).empty());
}

TEST(Campaign, ThreadsClampToGridSize)
{
    CampaignConfig cfg;
    cfg.threads = 16;
    Campaign c(cfg);
    const auto results = c.run(stochasticGrid(3));
    EXPECT_EQ(results.size(), 3u);
    EXPECT_EQ(c.stats().threadsUsed, 3u);
}

TEST(Campaign, EightThreadsMergeByteIdenticalToOne)
{
    // Many more cells than workers, so every worker claims several
    // units while the calling thread folds.
    const std::size_t kCells = 64;
    const std::uint64_t kSeed = 0xC0FFEE;

    CampaignConfig serial;
    serial.threads = 1;
    serial.seed = kSeed;
    const auto ref = Campaign(serial).run(stochasticGrid(kCells));

    CampaignConfig parallel;
    parallel.threads = 8;
    parallel.seed = kSeed;
    std::atomic<std::size_t> callbacks{0};
    parallel.onResult = [&callbacks](const ScenarioResult &) {
        ++callbacks;
    };
    Campaign c(parallel);
    const auto out = c.run(stochasticGrid(kCells));

    EXPECT_EQ(c.stats().threadsUsed, 8u);
    EXPECT_EQ(callbacks.load(), kCells);
    ASSERT_EQ(out.size(), ref.size());
    EXPECT_EQ(formatReport(out), formatReport(ref));
}

/**
 * Every fold and every onResult callback runs on the thread that
 * called Campaign::run, never on a worker, so callers may accumulate
 * into unsynchronized state from either.
 */
TEST(Campaign, FoldsAndCallbacksRunOnTheCallingThread)
{
    std::mutex mu; // Keeps the test race-free if the contract breaks.
    std::vector<std::thread::id> foldThreads, resultThreads;

    std::vector<Scenario> grid = stochasticGrid(2);
    for (std::size_t i = 0; i < 12; ++i) {
        Scenario sc;
        sc.name = "fold/" + std::to_string(i);
        sc.tasks = 3;
        sc.runTask = [](TaskContext &t) {
            ScenarioResult r;
            r.set("draw", static_cast<double>(t.rng.nextBounded(1000)));
            return r;
        };
        sc.fold = [&mu, &foldThreads](
                      const std::vector<ScenarioResult> &parts) {
            {
                const std::lock_guard<std::mutex> lock(mu);
                foldThreads.push_back(std::this_thread::get_id());
            }
            double sum = 0.0;
            for (const ScenarioResult &p : parts)
                sum += p.value("draw");
            ScenarioResult r;
            r.set("sum", sum);
            return r;
        };
        grid.push_back(std::move(sc));
    }

    CampaignConfig cfg;
    cfg.threads = 4;
    cfg.onResult = [&mu, &resultThreads](const ScenarioResult &) {
        const std::lock_guard<std::mutex> lock(mu);
        resultThreads.push_back(std::this_thread::get_id());
    };
    Campaign c(cfg);
    const auto results = c.run(grid);

    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_EQ(c.stats().threadsUsed, 4u);
    ASSERT_EQ(results.size(), grid.size());
    ASSERT_EQ(foldThreads.size(), 12u);
    ASSERT_EQ(resultThreads.size(), grid.size());
    for (const std::thread::id &id : foldThreads)
        EXPECT_EQ(id, caller);
    for (const std::thread::id &id : resultThreads)
        EXPECT_EQ(id, caller);
}

/** PKTCHASE_THREADS counts only when it is all digits in
 *  [1, UINT_MAX]; anything else warns and takes the default. */
TEST(Campaign, DefaultThreadsAcceptsOnlyAllDigitValues)
{
    const char *prior = std::getenv("PKTCHASE_THREADS");
    const std::string saved = prior ? prior : "";
    const bool hadPrior = prior != nullptr;

    unsetenv("PKTCHASE_THREADS");
    const unsigned fallback = defaultThreads();
    EXPECT_GE(fallback, 4u);

    setenv("PKTCHASE_THREADS", "3", 1);
    EXPECT_EQ(defaultThreads(), 3u);
    for (const char *bad : {"2abc", "4294967298", "0", "-1", ""}) {
        setenv("PKTCHASE_THREADS", bad, 1);
        EXPECT_EQ(defaultThreads(), fallback) << '"' << bad << '"';
    }

    if (hadPrior)
        setenv("PKTCHASE_THREADS", saved.c_str(), 1);
    else
        unsetenv("PKTCHASE_THREADS");
}

TEST(Campaign, DifferentSeedsDiffer)
{
    CampaignConfig a, b;
    a.threads = 2;
    b.threads = 2;
    a.seed = 1;
    b.seed = 2;
    const auto ra = Campaign(a).run(stochasticGrid(4));
    const auto rb = Campaign(b).run(stochasticGrid(4));
    EXPECT_NE(formatReport(ra), formatReport(rb));
}

/**
 * The acceptance-criteria check on real workload cells: the Fig. 14
 * defense sweep merged from >= 4 worker threads is bit-identical to
 * the single-threaded run for the same campaign seed. Uses a reduced
 * request count so the test stays fast; the cells still assemble
 * full-size testbeds and run the real server workload.
 */
TEST(Campaign, Fig14SweepFourThreadsDeterministic)
{
    const auto grid = workload::fig14ThroughputGrid(300);
    ASSERT_EQ(grid.size(), 6u);

    SweepOptions serial;
    serial.threads = 1;
    serial.seed = 11;
    serial.verbose = false;
    const auto ref = sweep(grid, serial);

    SweepOptions parallel = serial;
    parallel.threads = 4;
    const auto out = sweep(grid, parallel);

    EXPECT_EQ(formatReport(out), formatReport(ref));

    // Paired seeding: DDIO and adaptive cells at the same LLC size
    // must have run under the identical workload stream, so their
    // request counts match and throughput is comparable.
    for (const auto &r : out)
        EXPECT_GT(r.value("kreq_per_sec"), 0.0);
}
