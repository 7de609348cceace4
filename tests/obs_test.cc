/**
 * @file
 * Tests for the obs subsystem: hot-path counters (snapshot arithmetic,
 * naming, per-cell campaign deltas with the threads=N == threads=1
 * contract) and the trace the span session writes (file emission,
 * expected span names, drops, failed writes, zero-cost-when-detached
 * behaviour).
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "runtime/campaign.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"

namespace
{

using namespace pktchase;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(ObsStats, BumpAndSnapshotDelta)
{
    const obs::StatSnapshot before = obs::snapshot();
    obs::bump(obs::Stat::FramesDelivered);
    obs::bump(obs::Stat::FramesDelivered, 9);
    obs::bump(obs::Stat::ProbeRounds, 3);
    const obs::StatSnapshot delta = obs::snapshot() - before;
    EXPECT_EQ(delta.get(obs::Stat::FramesDelivered), 10u);
    EXPECT_EQ(delta.get(obs::Stat::ProbeRounds), 3u);
    EXPECT_EQ(delta.get(obs::Stat::LlcMisses), 0u);
}

TEST(ObsStats, ToCountersCarriesEveryStatInEnumOrder)
{
    const obs::StatSnapshot before = obs::snapshot();
    obs::bump(obs::Stat::SimEvents, 5);
    const auto counters = (obs::snapshot() - before).toCounters();
    ASSERT_EQ(counters.size(), obs::kStatCount);
    EXPECT_EQ(counters[0].first, "sim_events");
    EXPECT_EQ(counters[0].second, 5u);
    for (std::size_t i = 0; i < obs::kStatCount; ++i) {
        EXPECT_STREQ(counters[i].first.c_str(),
                     obs::statName(static_cast<obs::Stat>(i)));
    }
}

TEST(ObsStats, StatNamesAreUniqueAndStable)
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < obs::kStatCount; ++i)
        names.push_back(obs::statName(static_cast<obs::Stat>(i)));
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
    EXPECT_EQ(names.front(), "sim_events");
    EXPECT_EQ(names.back(), "detector_epochs");
}

TEST(ObsStatsDeathTest, BackwardsSubtractionPanics)
{
    obs::StatSnapshot a;
    obs::StatSnapshot b;
    b.counts[0] = 1;
    EXPECT_DEATH({ auto d = a - b; (void)d; }, "backwards");
}

TEST(ObsStats, EventQueueBumpsSimEvents)
{
    const obs::StatSnapshot before = obs::snapshot();
    EventQueue eq;
    for (Cycles c = 1; c <= 25; ++c)
        eq.schedule(c, [] {});
    eq.runUntil(100);
    const obs::StatSnapshot delta = obs::snapshot() - before;
    EXPECT_EQ(delta.get(obs::Stat::SimEvents), 25u);
}

/**
 * A tiny deterministic grid: cell i pops 10*(i+1) events plus an
 * rng-drawn count, so every cell's counter totals differ and depend
 * on the campaign seed -- exactly the shape the real grids have.
 */
std::vector<runtime::Scenario>
tinyGrid(std::size_t cells)
{
    std::vector<runtime::Scenario> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        grid.push_back({"obs/cell" + std::to_string(i),
            [i](runtime::ScenarioContext &ctx) {
                EventQueue eq;
                const std::uint64_t n =
                    10 * (i + 1) + ctx.rng.nextBounded(7);
                for (std::uint64_t k = 1; k <= n; ++k)
                    eq.schedule(k, [] {});
                eq.runUntil(n + 1);
                obs::bump(obs::Stat::FramesDelivered, i);
                runtime::ScenarioResult r;
                r.set("events", static_cast<double>(n));
                return r;
            }});
    }
    return grid;
}

/** Per-cell counter totals are identical on 1 and 4 worker threads. */
TEST(ObsCampaign, CounterTotalsMatchAcrossThreadCounts)
{
    runtime::CampaignConfig serial_cfg;
    serial_cfg.threads = 1;
    serial_cfg.seed = 99;
    runtime::Campaign serial(serial_cfg);
    const auto ref = serial.run(tinyGrid(13));

    runtime::CampaignConfig parallel_cfg;
    parallel_cfg.threads = 4;
    parallel_cfg.seed = 99;
    runtime::Campaign parallel(parallel_cfg);
    const auto par = parallel.run(tinyGrid(13));

    ASSERT_EQ(ref.size(), par.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i].counters.size(), obs::kStatCount);
        ASSERT_EQ(par[i].counters.size(), obs::kStatCount);
        for (std::size_t c = 0; c < obs::kStatCount; ++c) {
            EXPECT_EQ(ref[i].counters[c].first, par[i].counters[c].first);
            EXPECT_EQ(ref[i].counters[c].second,
                      par[i].counters[c].second)
                << "cell " << ref[i].name << " counter "
                << ref[i].counters[c].first;
        }
        // The cell scheduled events+1 queue pops at minimum; the delta
        // must reflect the cell's own work.
        EXPECT_EQ(ref[i].counter("sim_events"),
                  static_cast<std::uint64_t>(ref[i].value("events")));
        EXPECT_EQ(ref[i].counter("frames_delivered"), i);
    }
}

/** Test-only span site (registered once per process). */
const obs::ProfilePhase &
testPhase()
{
    static const obs::ProfilePhase p{"test.span", "test"};
    return p;
}

TEST(ObsTrace, DetachedByDefault)
{
    EXPECT_FALSE(obs::profiling());
    EXPECT_EQ(obs::ProfileSession::active(), nullptr);
    // Spans without a session must be harmless no-ops.
    { const obs::ScopedSpan span(testPhase()); }
    const obs::StatSnapshot before = obs::snapshot();
    { const obs::ScopedSpan span(std::string("noop"), testPhase()); }
    // A detached span must not touch the counters either.
    const obs::StatSnapshot delta = obs::snapshot() - before;
    for (std::size_t i = 0; i < obs::kStatCount; ++i)
        EXPECT_EQ(delta.counts[i], 0u);
}

TEST(ObsTrace, WritesChromeTraceJson)
{
    const std::string path =
        testing::TempDir() + "/obs_trace_test.json";
    {
        obs::ProfileSession session(0, path);
        EXPECT_TRUE(obs::profiling());
        EXPECT_EQ(obs::ProfileSession::active(), &session);
        {
            const obs::ScopedSpan outer(testPhase());
            const obs::ScopedSpan inner(std::string("dynamic-span"),
                                        testPhase());
        }
    }
    EXPECT_FALSE(obs::profiling());
    EXPECT_EQ(obs::ProfileSession::active(), nullptr);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(text.find("\"test.span\""), std::string::npos);
    EXPECT_NE(text.find("\"dynamic-span\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\": \"test\""), std::string::npos);
    EXPECT_NE(text.find("thread_name"), std::string::npos);
    EXPECT_NE(text.find("\"driver\""), std::string::npos);
    // Spans are complete events; with nothing dropped there is no
    // instant marker.
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_EQ(text.find("\"ph\": \"i\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsTrace, BoundedBufferCountsDrops)
{
    const std::string path =
        testing::TempDir() + "/obs_trace_drop_test.json";
    {
        obs::ProfileSession session(0, path, 4);
        for (int i = 0; i < 10; ++i) {
            const obs::ScopedSpan span(testPhase());
        }
        EXPECT_EQ(session.droppedEvents(), 6u);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("dropped_events"), std::string::npos);
    std::remove(path.c_str());
}

/** Satellite of the configurable trace buffers: overflowing a tiny
 *  bounded buffer from a multi-threaded campaign drops events but the
 *  emitted file is still well-formed JSON with the drop counts -- a
 *  drop must never tear an event record. */
TEST(ObsTrace, OverflowedBufferStillEmitsValidJson)
{
    const std::string path =
        testing::TempDir() + "/obs_trace_overflow_test.json";
    std::uint64_t dropped = 0;
    std::size_t threadsSeen = 0;
    {
        // One event per thread for a 9-cell campaign on 4 workers:
        // pigeonhole guarantees some worker runs >= 2 cells, so its
        // second span must be dropped mid-flight.
        obs::ProfileSession session(0, path, 1);
        runtime::CampaignConfig cfg;
        cfg.threads = 4;
        cfg.seed = 7;
        runtime::Campaign campaign(cfg);
        campaign.run(tinyGrid(9));
        dropped = session.droppedEvents();
        threadsSeen = session.perThreadDrops().size();
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_GE(threadsSeen, 2u); // Driver + at least one worker.

    sim::JsonValue root;
    std::string err;
    ASSERT_TRUE(sim::parseJsonFile(path, root, err)) << err;
    const sim::JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_FALSE(events->arr.empty());
    // The writer records each overflowed buffer as an instant marker.
    EXPECT_NE(slurp(path).find("dropped_events: "), std::string::npos);
    // The cap of 1 held: no track kept more than one span.
    std::vector<int> spansPerTid;
    for (const sim::JsonValue &e : events->arr) {
        if (e.find("ph")->str != "X")
            continue;
        const auto tid = static_cast<std::size_t>(e.find("tid")->num);
        if (tid >= spansPerTid.size())
            spansPerTid.resize(tid + 1);
        EXPECT_LE(++spansPerTid[tid], 1) << "tid " << tid;
    }
    std::remove(path.c_str());
}

/** A campaign under an active session traces cells without changing
 *  results: the traced report equals the untraced one byte-for-byte. */
TEST(ObsTrace, TracingDoesNotPerturbCampaignResults)
{
    runtime::CampaignConfig cfg;
    cfg.threads = 4;
    cfg.seed = 7;
    runtime::Campaign plain(cfg);
    const std::string ref = runtime::formatReport(plain.run(tinyGrid(9)));

    const std::string path =
        testing::TempDir() + "/obs_trace_campaign_test.json";
    std::string traced;
    {
        obs::ProfileSession session(0, path);
        runtime::Campaign campaign(cfg);
        traced = runtime::formatReport(campaign.run(tinyGrid(9)));
    }
    EXPECT_EQ(ref, traced);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    // Worker tracks and per-cell spans made it into the trace.
    EXPECT_NE(text.find("\"worker-0\""), std::string::npos);
    EXPECT_NE(text.find("obs/cell0"), std::string::npos);
    std::remove(path.c_str());
}

/** A trace that cannot be written completely is reported, so the
 *  command that asked for it can fail; /dev/full accepts the open and
 *  fails the flush. */
TEST(ObsTrace, FailedWriteIsReported)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    obs::ProfileSession session(0, "/dev/full");
    { const obs::ScopedSpan span(testPhase()); }
    EXPECT_FALSE(session.writeTrace());
    // Idempotent: the second call (and the destructor's) reports the
    // first outcome instead of writing again.
    EXPECT_FALSE(session.writeTrace());
}

} // namespace
