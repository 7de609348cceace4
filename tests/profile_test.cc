/**
 * @file
 * Tests for the in-process profile layer: histogram bucket edges,
 * exact self-vs-inclusive accounting on nested spans under the
 * deterministic tick clock, the per-cell campaign drains (threads=4
 * == threads=1), the profile report artifact (shape, manifest,
 * byte-identical shard merge), the trace drop counts it carries, the
 * trace and the profile counting the same spans, and the merge
 * validator's profile-specific rejections (manifest/clock mismatches).
 *
 * Every value-level assertion runs on the tick clock: a tick session
 * advances each thread's fake clock by a fixed N ns per query, so
 * span durations depend only on the sequence of clock queries -- the
 * same reason the shard-merge byte-identity check can run in CI.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/profile.hh"
#include "obs/trace.hh"
#include "runtime/campaign.hh"
#include "runtime/report.hh"
#include "runtime/scenario.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "workload/defense_eval.hh"

using namespace pktchase;
using namespace pktchase::runtime;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << text;
}

TEST(ProfileHistogram, BucketEdges)
{
    // Bucket 0 is exactly 0 ns; bucket b >= 1 covers [2^(b-1), 2^b).
    EXPECT_EQ(obs::profileHistBucket(0), 0u);
    EXPECT_EQ(obs::profileHistBucket(1), 1u);
    EXPECT_EQ(obs::profileHistBucket(2), 2u);
    EXPECT_EQ(obs::profileHistBucket(3), 2u);
    EXPECT_EQ(obs::profileHistBucket(4), 3u);
    EXPECT_EQ(obs::profileHistBucket(7), 3u);
    EXPECT_EQ(obs::profileHistBucket(8), 4u);
    for (std::size_t b = 1; b + 1 < obs::kProfileHistBuckets; ++b) {
        const std::uint64_t low = obs::profileHistBucketLowNs(b);
        EXPECT_EQ(obs::profileHistBucket(low), b) << b;
        EXPECT_EQ(obs::profileHistBucket(low - 1), b - 1) << b;
        EXPECT_EQ(obs::profileHistBucket(2 * low - 1), b) << b;
    }
    // The last bucket absorbs everything above its lower edge.
    EXPECT_EQ(obs::profileHistBucket(~std::uint64_t(0)),
              obs::kProfileHistBuckets - 1);
    EXPECT_EQ(obs::profileHistBucketLowNs(0), 0u);
    EXPECT_EQ(obs::profileHistBucketLowNs(1), 1u);
    EXPECT_EQ(obs::profileHistBucketLowNs(4), 8u);
}

TEST(ProfileStats, AddAndMergeAreElementWise)
{
    obs::PhaseStats a;
    EXPECT_TRUE(a.empty());
    a.add(10, 4); // self 6
    a.add(2, 0);  // self 2
    EXPECT_EQ(a.count, 2u);
    EXPECT_EQ(a.totalNs, 12u);
    EXPECT_EQ(a.selfNs, 8u);
    EXPECT_EQ(a.minNs, 2u);
    EXPECT_EQ(a.maxNs, 10u);
    EXPECT_EQ(a.hist[obs::profileHistBucket(10)], 1u);
    EXPECT_EQ(a.hist[obs::profileHistBucket(2)], 1u);

    obs::PhaseStats b;
    b.add(1, 0);
    b.merge(a);
    EXPECT_EQ(b.count, 3u);
    EXPECT_EQ(b.totalNs, 13u);
    EXPECT_EQ(b.selfNs, 9u);
    EXPECT_EQ(b.minNs, 1u);
    EXPECT_EQ(b.maxNs, 10u);
}

/** Test-only span sites (registered once per process). */
const obs::ProfilePhase &
outerPhase()
{
    static const obs::ProfilePhase p{"test.outer", "test"};
    return p;
}

const obs::ProfilePhase &
innerPhase()
{
    static const obs::ProfilePhase p{"test.inner", "test"};
    return p;
}

TEST(ProfilePhaseRegistry, NamesRoundTrip)
{
    const obs::ProfilePhase &p = outerPhase();
    ASSERT_LT(p.id(), obs::registeredPhaseCount());
    EXPECT_STREQ(obs::phaseName(p.id()), "test.outer");
    EXPECT_STREQ(obs::phaseCat(p.id()), "test");
}

TEST(ProfileSession, DetachedSpansCostNothingAndDrainEmpty)
{
    EXPECT_FALSE(obs::profiling());
    { const obs::ScopedSpan span(outerPhase()); }
    EXPECT_TRUE(obs::drainProfile().empty());
}

/**
 * Exact self/inclusive accounting on the tick clock. Each profiled
 * span makes one clock query at open and one at close, so with tick T:
 * inner dur = T (one query between its open and close), outer dur =
 * 3T (inner's two queries plus its own close), outer self = 2T.
 */
TEST(ProfileSession, NestedSpansSplitSelfAndInclusiveExactly)
{
    constexpr std::uint64_t T = 5;
    obs::ProfileSession session(T);
    EXPECT_TRUE(obs::profiling());
    EXPECT_EQ(session.clockTag(), "ticks:5");
    obs::drainProfile(); // Discard anything from registration.

    {
        const obs::ScopedSpan outer(outerPhase());
        const obs::ScopedSpan inner(innerPhase());
    }
    const obs::ProfileDelta d = obs::drainProfile();
    ASSERT_EQ(d.size(), obs::registeredPhaseCount());

    const obs::PhaseStats &out = d[outerPhase().id()];
    EXPECT_EQ(out.count, 1u);
    EXPECT_EQ(out.totalNs, 3 * T);
    EXPECT_EQ(out.selfNs, 2 * T);
    EXPECT_EQ(out.minNs, 3 * T);
    EXPECT_EQ(out.maxNs, 3 * T);
    EXPECT_EQ(out.hist[obs::profileHistBucket(3 * T)], 1u);

    const obs::PhaseStats &in = d[innerPhase().id()];
    EXPECT_EQ(in.count, 1u);
    EXPECT_EQ(in.totalNs, T);
    EXPECT_EQ(in.selfNs, T);

    // Drain moved the stats out: a second drain is all-empty.
    for (const obs::PhaseStats &s : obs::drainProfile())
        EXPECT_TRUE(s.empty());
}

/**
 * A small deterministic grid whose cells run profiled spans: cell i
 * closes i+1 inner spans inside one outer span, plus rng-seeded event
 * work, so per-cell tick-clock profiles all differ.
 */
std::vector<Scenario>
profiledGrid(std::size_t cells)
{
    std::vector<Scenario> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        grid.push_back({"prof/" + std::to_string(i),
            [i](ScenarioContext &ctx) {
                EventQueue eq;
                const std::uint64_t n = 5 + ctx.rng.nextBounded(11);
                for (std::uint64_t k = 1; k <= n; ++k)
                    eq.schedule(k, [] {});
                {
                    const obs::ScopedSpan outer(outerPhase());
                    for (std::size_t j = 0; j <= i; ++j) {
                        const obs::ScopedSpan inner(innerPhase());
                    }
                    eq.runUntil(n + 1);
                }
                ScenarioResult r;
                r.set("events", static_cast<double>(n));
                return r;
            }});
    }
    return grid;
}

std::vector<ScenarioResult>
runProfiled(std::size_t cells, unsigned threads, std::uint64_t seed)
{
    CampaignConfig cfg;
    cfg.threads = threads;
    cfg.seed = seed;
    Campaign c(cfg);
    return c.run(profiledGrid(cells));
}

/**
 * The determinism drill, extended to profiles: on the tick clock the
 * per-cell profile rows are identical on 1 and 4 worker threads.
 * Compared as written reports, whose rows are keyed and ordered by
 * phase name -- phase *ids* are first-use registration order, which
 * thread interleaving may permute, so the raw vectors are not
 * comparable across runs.
 */
TEST(ProfileCampaign, PerCellProfilesMatchAcrossThreadCounts)
{
    obs::ProfileSession session(3);

    const auto ref = runProfiled(13, 1, 77);
    const auto par = runProfiled(13, 4, 77);
    ASSERT_EQ(ref.size(), par.size());

    // One threads argument for both: the manifest records it, so only
    // the rows (and the table derived from them) could differ.
    const std::string refPath = testing::TempDir() + "/prof_t1.json";
    const std::string parPath = testing::TempDir() + "/prof_t4.json";
    ASSERT_TRUE(profileReport("prof", 77, 13, ShardSpec{0, 1}, 1,
                              session.clockTag(), ref)
                    .write(refPath));
    ASSERT_TRUE(profileReport("prof", 77, 13, ShardSpec{0, 1}, 1,
                              session.clockTag(), par)
                    .write(parPath));
    EXPECT_EQ(slurp(refPath), slurp(parPath));

    // The cells ran profiled spans: the serialized rows must carry
    // the test phases and the campaign's own cell phase.
    sim::JsonValue root;
    std::string err;
    ASSERT_TRUE(sim::parseJsonFile(refPath, root, err)) << err;
    const sim::JsonValue *cells = root.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->arr.size(), 13u);
    const sim::JsonValue *metrics = cells->arr[0].find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(metrics->find("test.outer.count"), nullptr);
    EXPECT_NE(metrics->find("cell.count"), nullptr);
    std::remove(refPath.c_str());
    std::remove(parPath.c_str());
}

/** Profiling must not perturb results: the formatted report of a
 *  profiled campaign equals the unprofiled one byte-for-byte. */
TEST(ProfileCampaign, ProfilingDoesNotPerturbCampaignResults)
{
    CampaignConfig cfg;
    cfg.threads = 4;
    cfg.seed = 7;
    Campaign plain(cfg);
    const std::string ref = formatReport(plain.run(profiledGrid(9)));

    std::string profiled;
    {
        obs::ProfileSession session; // Wall clock, like real runs.
        Campaign campaign(cfg);
        profiled = formatReport(campaign.run(profiledGrid(9)));
    }
    EXPECT_EQ(ref, profiled);
}

/** Run @p spec's slice under the tick clock and write its profile
 *  shard report to @p path. */
void
writeProfileShard(const std::string &path, std::size_t cells,
                  std::uint64_t seed, const ShardSpec &spec)
{
    CampaignConfig cfg;
    cfg.threads = 2;
    cfg.seed = seed;
    Campaign c(cfg);
    const auto results =
        c.run(profiledGrid(cells), shardIndices(cells, spec));
    const sim::BenchReport report = profileReport(
        "prof", seed, cells, spec, /*threads=*/2,
        obs::ProfileSession::active()->clockTag(), results);
    ASSERT_TRUE(report.write(path));
}

TEST(ProfileReport, ShapeParsesWithManifestAndPhaseTable)
{
    obs::ProfileSession session(3);
    const std::string path =
        testing::TempDir() + "/profile_shape.json";
    writeProfileShard(path, 5, 21, ShardSpec{0, 1});

    sim::JsonValue root;
    std::string err;
    ASSERT_TRUE(sim::parseJsonFile(path, root, err)) << err;

    EXPECT_EQ(root.find("bench")->str, "profile");
    EXPECT_EQ(root.find("grid")->str, "prof");
    EXPECT_EQ(root.find("campaign_seed")->str, "21");
    EXPECT_EQ(root.find("clock")->str, "ticks:3");

    // The embedded provenance manifest, with host fields.
    const sim::JsonValue *manifest = root.find("manifest");
    ASSERT_NE(manifest, nullptr);
    EXPECT_NE(manifest->find("git_sha"), nullptr);
    EXPECT_NE(manifest->find("compiler"), nullptr);
    EXPECT_NE(manifest->find("build_flags"), nullptr);
    EXPECT_NE(manifest->find("hostname"), nullptr);
    ASSERT_NE(manifest->find("threads"), nullptr);
    EXPECT_EQ(manifest->find("threads")->num, 2.0);

    // Aggregate phase table at top level, per-phase rows per cell.
    for (const char *key :
         {"cell.count", "cell.self_share", "cell.throughput_hz",
          "test.outer.count", "test.inner.total_ns",
          "trace.dropped_events"}) {
        EXPECT_NE(root.find(key), nullptr) << key;
    }
    const sim::JsonValue *cells = root.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->arr.size(), 5u);
    const sim::JsonValue *metrics = cells->arr[0].find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(metrics->find("cell.count"), nullptr);
    EXPECT_NE(metrics->find("test.inner.count"), nullptr);
    // Cell rows carry raw integer fields only; derived ratios live in
    // the top-level table where they are recomputed on merge.
    EXPECT_EQ(metrics->find("cell.self_share"), nullptr);
    std::remove(path.c_str());
}

/** The tentpole merge contract: two profile shards on the tick clock
 *  merge byte-identical to the unsharded profile report. */
TEST(ProfileShardMerge, MergesByteIdenticalToUnsharded)
{
    obs::ProfileSession session(3);
    const std::string dir = testing::TempDir();
    const std::size_t cells = 9;
    const std::uint64_t seed = 4242;

    const std::string full = dir + "/prof_full.json";
    writeProfileShard(full, cells, seed, ShardSpec{0, 1});

    const std::string s0 = dir + "/prof_s0.json";
    const std::string s1 = dir + "/prof_s1.json";
    writeProfileShard(s0, cells, seed, ShardSpec{0, 2});
    writeProfileShard(s1, cells, seed, ShardSpec{1, 2});

    const std::string merged = dir + "/prof_merged.json";
    const std::string err = mergeShardReports({s1, s0}, merged);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(slurp(merged), slurp(full));

    for (const std::string &p : {s0, s1, full, merged})
        std::remove(p.c_str());
}

TEST(ProfileShardMerge, RejectsTamperedManifestGitSha)
{
    obs::ProfileSession session(3);
    const std::string dir = testing::TempDir();
    const std::string a = dir + "/sha_a.json";
    const std::string b = dir + "/sha_b.json";
    writeProfileShard(a, 7, 5, ShardSpec{0, 2});
    writeProfileShard(b, 7, 5, ShardSpec{1, 2});

    // Flip one character of shard b's recorded git sha: a merge of
    // artifacts from different builds must be refused.
    std::string text = slurp(b);
    const std::string key = "\"git_sha\": \"";
    const std::size_t pos = text.find(key);
    ASSERT_NE(pos, std::string::npos);
    char &c = text[pos + key.size()];
    c = c == 'z' ? 'y' : 'z';
    spit(b, text);

    const std::string out = dir + "/sha_out.json";
    const std::string err = mergeShardReports({a, b}, out);
    EXPECT_NE(err.find("git sha"), std::string::npos) << err;

    for (const std::string &p : {a, b})
        std::remove(p.c_str());
}

TEST(ProfileShardMerge, RejectsClockAndSeedMismatches)
{
    obs::ProfileSession session(3);
    const std::string dir = testing::TempDir();
    const std::string a = dir + "/clk_a.json";
    const std::string b = dir + "/clk_b.json";
    writeProfileShard(a, 7, 5, ShardSpec{0, 2});
    writeProfileShard(b, 7, 5, ShardSpec{1, 2});

    // A wall-clock artifact must not merge with a tick-clock one.
    std::string text = slurp(b);
    const std::size_t pos = text.find("\"ticks:3\"");
    ASSERT_NE(pos, std::string::npos);
    std::string tampered = text;
    tampered.replace(pos, 9, "\"wall\"");
    spit(b, tampered);
    const std::string out = dir + "/clk_out.json";
    std::string err = mergeShardReports({a, b}, out);
    EXPECT_NE(err.find("clock"), std::string::npos) << err;

    // A different campaign seed is a different experiment.
    std::string reseeded = text;
    const std::string seedKey = "\"campaign_seed\": \"5\"";
    const std::size_t seedPos = reseeded.find(seedKey);
    ASSERT_NE(seedPos, std::string::npos);
    reseeded.replace(seedPos, seedKey.size(),
                     "\"campaign_seed\": \"6\"");
    spit(b, reseeded);
    err = mergeShardReports({a, b}, out);
    EXPECT_FALSE(err.empty());

    for (const std::string &p : {a, b})
        std::remove(p.c_str());
}

/** A drop count past what a double holds exactly would re-emit as
 *  "inf", which is not JSON: the merge refuses it. */
TEST(ProfileShardMerge, RejectsNonIntegerTraceDrops)
{
    obs::ProfileSession session(3);
    const std::string dir = testing::TempDir();
    const std::string a = dir + "/drop_a.json";
    const std::string b = dir + "/drop_b.json";
    writeProfileShard(a, 7, 5, ShardSpec{0, 2});
    writeProfileShard(b, 7, 5, ShardSpec{1, 2});

    std::string text = slurp(b);
    const std::string key = "\"trace.dropped_events\": 0";
    const std::size_t pos = text.find(key);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, key.size(), "\"trace.dropped_events\": 1e999");
    spit(b, text);

    const std::string out = dir + "/drop_out.json";
    std::remove(out.c_str());
    const std::string err = mergeShardReports({a, b}, out);
    EXPECT_NE(err.find(b + ": \"trace.dropped_events\" is not a "
                           "non-negative integer"),
              std::string::npos)
        << err;
    EXPECT_FALSE(std::ifstream(out).good());

    for (const std::string &p : {a, b})
        std::remove(p.c_str());
}

/** One shard must not merge with a campaign report (mixed types). */
TEST(ProfileShardMerge, RejectsMixedBenchTypes)
{
    obs::ProfileSession session(3);
    const std::string dir = testing::TempDir();
    const std::string a = dir + "/mix_a.json";
    const std::string b = dir + "/mix_b.json";
    writeProfileShard(a, 7, 5, ShardSpec{0, 2});
    {
        CampaignConfig cfg;
        cfg.threads = 2;
        cfg.seed = 5;
        Campaign c(cfg);
        const ShardSpec spec{1, 2};
        const auto results =
            c.run(profiledGrid(7), shardIndices(7, spec));
        ASSERT_TRUE(campaignReport("prof", 5, 7, spec, results)
                        .write(b));
    }

    const std::string out = dir + "/mix_out.json";
    const std::string err = mergeShardReports({a, b}, out);
    EXPECT_NE(err.find("bench types"), std::string::npos) << err;

    for (const std::string &p : {a, b})
        std::remove(p.c_str());
}

/** Satellite 1: a profiled run under a bounded trace buffer reports
 *  its drop counts (total and per thread) in the profile artifact. */
TEST(ProfileReport, CarriesTraceDropCounts)
{
    const std::string tracePath =
        testing::TempDir() + "/profile_drop_trace.json";
    const std::string profPath =
        testing::TempDir() + "/profile_drop_prof.json";
    {
        obs::ProfileSession session(3, tracePath, 4);
        for (int i = 0; i < 10; ++i) {
            const obs::ScopedSpan span(outerPhase());
        }

        CampaignConfig cfg;
        cfg.threads = 1;
        cfg.seed = 5;
        Campaign c(cfg);
        const auto results = c.run(profiledGrid(3));
        ASSERT_TRUE(profileReport("prof", 5, 3, ShardSpec{0, 1}, 1,
                                  session.clockTag(), results)
                        .write(profPath));
    }
    sim::JsonValue root;
    std::string err;
    ASSERT_TRUE(sim::parseJsonFile(profPath, root, err)) << err;
    const sim::JsonValue *total = root.find("trace.dropped_events");
    ASSERT_NE(total, nullptr);
    EXPECT_GE(total->num, 6.0);
    // Per-thread attribution for the driver thread (attach order 0).
    const sim::JsonValue *t0 = root.find("trace.dropped.t0");
    ASSERT_NE(t0, nullptr);
    EXPECT_GE(t0->num, 6.0);
    std::remove(tracePath.c_str());
    std::remove(profPath.c_str());
}

/** The per-thread drop keys come in tid order, not in the order the
 *  workers happened to attach, so a tick-clock profile stays a pure
 *  function of the work. */
TEST(ProfileReport, TraceDropKeysComeInTidOrder)
{
    const std::string tracePath =
        testing::TempDir() + "/profile_tid_trace.json";
    const std::string profPath =
        testing::TempDir() + "/profile_tid_prof.json";
    {
        obs::ProfileSession session(3, tracePath);
        // Workers 2, 0, 1 attach one after another: tracks 3, 1, 2.
        for (unsigned w : {2u, 0u, 1u}) {
            std::thread([w] {
                obs::attachWorkerThread(w);
                obs::detachWorkerThread();
            }).join();
        }
        ASSERT_TRUE(profileReport("prof", 5, 0, ShardSpec{0, 1}, 3,
                                  session.clockTag(), {})
                        .write(profPath));
    }
    const std::string text = slurp(profPath);
    std::size_t last = 0;
    for (int tid = 0; tid <= 3; ++tid) {
        const std::size_t at =
            text.find("\"trace.dropped.t" + std::to_string(tid) + "\"");
        ASSERT_NE(at, std::string::npos) << "t" << tid;
        EXPECT_GT(at, last) << "t" << tid << " out of tid order";
        last = at;
    }
    EXPECT_EQ(text.find("\"trace.dropped.t4\""), std::string::npos);
    std::remove(tracePath.c_str());
    std::remove(profPath.c_str());
}

/**
 * The trace and the profile are one span stream: on a traced,
 * profiled 4-worker campaign on the tick clock with nothing dropped,
 * every phase's count in the profile report equals the trace's X
 * events of that phase -- by name, except for the cell and task spans,
 * which carry dynamic names and are counted by category. The grid is
 * the registered fig7q cells (cell, nic.deliver and llc.walk spans)
 * plus decomposed test cells (fabric.task and nested test spans).
 */
TEST(ProfileReport, TraceAndProfileCountTheSameSpans)
{
    std::vector<Scenario> grid = workload::fig7qFootprintGrid(4000);
    for (std::size_t i = 0; i < 3; ++i) {
        Scenario sc;
        sc.name = "split/" + std::to_string(i);
        sc.tasks = 4;
        sc.runTask = [i](TaskContext &ctx) {
            const obs::ScopedSpan outer(outerPhase());
            for (std::size_t j = 0; j <= i + ctx.task; ++j) {
                const obs::ScopedSpan inner(innerPhase());
            }
            return ScenarioResult{};
        };
        sc.fold = [](const std::vector<ScenarioResult> &) {
            return ScenarioResult{};
        };
        grid.push_back(std::move(sc));
    }

    const std::string tracePath =
        testing::TempDir() + "/profile_same_spans_trace.json";
    const std::string profPath =
        testing::TempDir() + "/profile_same_spans_prof.json";
    {
        obs::ProfileSession session(3, tracePath);
        CampaignConfig cfg;
        cfg.threads = 4;
        cfg.seed = 11;
        Campaign c(cfg);
        const auto results = c.run(grid);
        EXPECT_EQ(session.droppedEvents(), 0u);
        ASSERT_TRUE(profileReport("same", 11, grid.size(),
                                  ShardSpec{0, 1}, 4,
                                  session.clockTag(), results)
                        .write(profPath));
        ASSERT_TRUE(session.writeTrace());
    }

    sim::JsonValue trace;
    std::string err;
    ASSERT_TRUE(sim::parseJsonFile(tracePath, trace, err)) << err;
    std::map<std::string, double> byName;
    std::map<std::string, double> byCat;
    double spans = 0;
    for (const sim::JsonValue &e : trace.find("traceEvents")->arr) {
        if (e.find("ph")->str != "X")
            continue;
        ++byName[e.find("name")->str];
        ++byCat[e.find("cat")->str];
        ++spans;
    }

    sim::JsonValue prof;
    ASSERT_TRUE(sim::parseJsonFile(profPath, prof, err)) << err;
    const std::string suffix = ".count";
    double counted = 0;
    for (const auto &kv : prof.obj) {
        const std::string &key = kv.first;
        if (key.size() <= suffix.size() ||
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) != 0)
            continue;
        const std::string phase = key.substr(0, key.size() - suffix.size());
        const bool dynamic = phase == "cell" || phase == "fabric.task";
        EXPECT_EQ((dynamic ? byCat : byName)[phase], kv.second.num)
            << phase;
        counted += kv.second.num;
    }
    for (const char *phase : {"cell", "fabric.task", "nic.deliver",
                              "llc.walk", "test.outer", "test.inner"})
        EXPECT_NE(prof.find(std::string(phase) + suffix), nullptr) << phase;
    // Every traced span belongs to one of the counted phases.
    EXPECT_EQ(spans, counted);
    std::remove(tracePath.c_str());
    std::remove(profPath.c_str());
}

} // namespace
