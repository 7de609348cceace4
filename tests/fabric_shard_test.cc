/**
 * @file
 * Tests for the multi-process shard layer: spec parsing, slice
 * generation, the mergeable campaign report, and the merge validator.
 * The headline property is the ISSUE contract -- figD1 run as
 * --shard=i/4 slices and merged is byte-identical to the unsharded
 * report -- plus the rejection paths (overlapping shards, incomplete
 * sets, tampered seeds, malformed rows) that keep a bad merge from
 * silently corrupting a campaign, and a seeded mutation loop that
 * holds the merge to one-line rejections.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/campaign.hh"
#include "runtime/report.hh"
#include "runtime/scenario.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "workload/detect_eval.hh"

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

TEST(ShardSpec, ParsesWellFormedSpecs)
{
    ShardSpec spec;
    ASSERT_TRUE(parseShardSpec("0/1", spec));
    EXPECT_EQ(spec.index, 0u);
    EXPECT_EQ(spec.count, 1u);
    ASSERT_TRUE(parseShardSpec("3/4", spec));
    EXPECT_EQ(spec.index, 3u);
    EXPECT_EQ(spec.count, 4u);
    ASSERT_TRUE(parseShardSpec("17/256", spec));
    EXPECT_EQ(spec.index, 17u);
    EXPECT_EQ(spec.count, 256u);
}

TEST(ShardSpec, RejectsJunk)
{
    ShardSpec spec;
    EXPECT_FALSE(parseShardSpec("", spec));
    EXPECT_FALSE(parseShardSpec("3", spec));
    EXPECT_FALSE(parseShardSpec("/4", spec));
    EXPECT_FALSE(parseShardSpec("2/", spec));
    EXPECT_FALSE(parseShardSpec("a/b", spec));
    EXPECT_FALSE(parseShardSpec("-1/4", spec));
    EXPECT_FALSE(parseShardSpec("1/4/2", spec));
    EXPECT_FALSE(parseShardSpec("0/0", spec)); // count must be > 0
    EXPECT_FALSE(parseShardSpec("4/4", spec)); // index must be < count
    EXPECT_FALSE(parseShardSpec("5/4", spec));
}

TEST(ShardSpec, SlicesPartitionTheGrid)
{
    const std::size_t gridSize = 23; // Deliberately not a multiple.
    std::vector<int> covered(gridSize, 0);
    for (unsigned i = 0; i < 4; ++i) {
        const auto slice = shardIndices(gridSize, ShardSpec{i, 4});
        std::size_t expect = i;
        for (std::size_t index : slice) {
            EXPECT_EQ(index, expect); // {i, i+4, ...}, increasing.
            expect += 4;
            ASSERT_LT(index, gridSize);
            ++covered[index];
        }
    }
    for (std::size_t i = 0; i < gridSize; ++i)
        EXPECT_EQ(covered[i], 1) << "cell " << i;

    // Unsharded 0/1 is the whole grid; an over-sharded tail is empty.
    EXPECT_EQ(shardIndices(gridSize, ShardSpec{0, 1}).size(), gridSize);
    EXPECT_TRUE(shardIndices(3, ShardSpec{3, 8}).empty());
}

/** A small deterministic-but-stochastic grid for the merge tests. */
std::vector<Scenario>
tinyGrid(std::size_t cells)
{
    std::vector<Scenario> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        grid.push_back({"tiny/" + std::to_string(i),
            [](ScenarioContext &ctx) {
                ScenarioResult r;
                r.set("x", ctx.rng.nextDouble());
                r.set("y", ctx.rng.nextDouble() * 1e9);
                return r;
            }});
    }
    return grid;
}

/** Run @p spec's slice of tinyGrid(@p cells) and write its shard
 *  report to @p path. */
void
writeShard(const std::string &path, std::size_t cells,
           std::uint64_t seed, const ShardSpec &spec)
{
    CampaignConfig cfg;
    cfg.threads = 2;
    cfg.seed = seed;
    Campaign c(cfg);
    const auto results =
        c.run(tinyGrid(cells), shardIndices(cells, spec));
    const sim::BenchReport report =
        campaignReport("tiny", seed, cells, spec, results);
    ASSERT_TRUE(report.write(path));
}

TEST(ShardReport, CarriesIdentityMetasAndRowTags)
{
    const std::string path = testing::TempDir() + "/shard_meta.json";
    writeShard(path, 7, 99, ShardSpec{1, 3}); // cells {1, 4}

    sim::JsonValue root;
    std::string err;
    ASSERT_TRUE(sim::parseJsonFile(path, root, err)) << err;

    ASSERT_NE(root.find("bench"), nullptr);
    EXPECT_EQ(root.find("bench")->str, "campaign");
    EXPECT_EQ(root.find("grid")->str, "tiny");
    EXPECT_EQ(root.find("campaign_seed")->str, "99");
    EXPECT_EQ(root.find("grid_size")->str, "7");
    EXPECT_EQ(root.find("shard_index")->str, "1");
    EXPECT_EQ(root.find("shard_count")->str, "3");

    const sim::JsonValue *cells = root.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->arr.size(), 2u); // slice {1, 4} of 7
    const std::size_t indices[] = {1, 4};
    for (std::size_t k = 0; k < 2; ++k) {
        const sim::JsonValue &cell = cells->arr[k];
        EXPECT_EQ(cell.find("index")->num, double(indices[k]));
        char want[32];
        std::snprintf(want, sizeof(want), "0x%016llx",
                      static_cast<unsigned long long>(
                          splitSeed(99, indices[k])));
        EXPECT_EQ(cell.find("seed")->str, want);
        EXPECT_NE(cell.find("metrics"), nullptr);
        EXPECT_NE(cell.find("hex"), nullptr);
    }
    std::remove(path.c_str());
}

TEST(ShardMerge, TinyGridMergesByteIdenticalToUnsharded)
{
    const std::string dir = testing::TempDir();
    const std::size_t cells = 11;
    const std::uint64_t seed = 4242;

    const std::string full = dir + "/tiny_full.json";
    writeShard(full, cells, seed, ShardSpec{0, 1});

    std::vector<std::string> shards;
    for (unsigned i = 0; i < 3; ++i) {
        shards.push_back(dir + "/tiny_s" + std::to_string(i) + ".json");
        writeShard(shards.back(), cells, seed, ShardSpec{i, 3});
    }

    const std::string merged = dir + "/tiny_merged.json";
    // Shard order must not matter: merge them shuffled.
    const std::string err = mergeShardReports(
        {shards[2], shards[0], shards[1]}, merged);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(slurp(merged), slurp(full));

    for (const std::string &p : shards)
        std::remove(p.c_str());
    std::remove(full.c_str());
    std::remove(merged.c_str());
}

/** The ISSUE contract verbatim: figD1 sharded i/4 and merged is
 *  byte-identical to the unsharded report. (CI repeats this end to
 *  end through the campaign binary across four matrix jobs.) */
TEST(ShardMerge, FigD1ShardedFourWaysMergesByteIdentical)
{
    const std::string dir = testing::TempDir();
    const std::uint64_t seed = 1; // The sweep default.
    const auto grid = workload::figD1DetectionGrid();

    CampaignConfig cfg;
    cfg.threads = 4;
    cfg.seed = seed;

    const std::string full = dir + "/figD1_full.json";
    {
        Campaign c(cfg);
        const auto results = c.run(workload::figD1DetectionGrid());
        ASSERT_TRUE(campaignReport("figD1", seed, grid.size(),
                                   ShardSpec{0, 1}, results)
                        .write(full));
    }

    std::vector<std::string> shards;
    for (unsigned i = 0; i < 4; ++i) {
        shards.push_back(dir + "/figD1_s" + std::to_string(i) +
                         ".json");
        Campaign c(cfg);
        const ShardSpec spec{i, 4};
        const auto results = c.run(workload::figD1DetectionGrid(),
                                   shardIndices(grid.size(), spec));
        ASSERT_TRUE(campaignReport("figD1", seed, grid.size(), spec,
                                   results)
                        .write(shards.back()));
    }

    const std::string merged = dir + "/figD1_merged.json";
    const std::string err = mergeShardReports(shards, merged);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(slurp(merged), slurp(full));

    for (const std::string &p : shards)
        std::remove(p.c_str());
    std::remove(full.c_str());
    std::remove(merged.c_str());
}

TEST(ShardMerge, RejectsOverlappingShards)
{
    const std::string dir = testing::TempDir();
    const std::string a = dir + "/dup_a.json";
    const std::string b = dir + "/dup_b.json";
    const std::string c = dir + "/dup_c.json";
    writeShard(a, 9, 7, ShardSpec{0, 3});
    writeShard(b, 9, 7, ShardSpec{0, 3}); // Same shard twice.
    writeShard(c, 9, 7, ShardSpec{1, 3});

    const std::string out = dir + "/dup_out.json";
    const std::string err = mergeShardReports({a, b, c}, out);
    EXPECT_NE(err.find("overlapping shards"), std::string::npos) << err;
    EXPECT_NE(err.find("both claim shard 0/3"), std::string::npos)
        << err;

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(c.c_str());
}

TEST(ShardMerge, RejectsIncompleteShardSet)
{
    const std::string dir = testing::TempDir();
    const std::string a = dir + "/inc_a.json";
    const std::string b = dir + "/inc_b.json";
    writeShard(a, 9, 7, ShardSpec{0, 3});
    writeShard(b, 9, 7, ShardSpec{2, 3}); // Shard 1/3 never arrives.

    const std::string out = dir + "/inc_out.json";
    const std::string err = mergeShardReports({a, b}, out);
    EXPECT_NE(err.find("incomplete shard set"), std::string::npos)
        << err;
    EXPECT_NE(err.find("2 file(s) for 3 shards"), std::string::npos)
        << err;

    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(ShardMerge, RejectsMixedCampaigns)
{
    const std::string dir = testing::TempDir();
    const std::string a = dir + "/mix_a.json";
    const std::string b = dir + "/mix_b.json";
    writeShard(a, 9, 7, ShardSpec{0, 2});
    writeShard(b, 9, 8, ShardSpec{1, 2}); // Different campaign seed.

    const std::string out = dir + "/mix_out.json";
    const std::string err = mergeShardReports({a, b}, out);
    EXPECT_NE(err.find("campaign seed 8"), std::string::npos) << err;
    EXPECT_NE(err.find("does not match seed 7"), std::string::npos)
        << err;

    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(ShardMerge, RejectsTamperedSeedMeta)
{
    const std::string dir = testing::TempDir();
    const std::string a = dir + "/tamper_a.json";
    const std::string b = dir + "/tamper_b.json";
    writeShard(a, 9, 7, ShardSpec{0, 2});
    writeShard(b, 9, 7, ShardSpec{1, 2});

    // Rewrite shard b's campaign_seed meta without re-running its
    // cells: the recorded per-row seeds no longer derive from it.
    std::string text = slurp(b);
    const std::string before = "\"campaign_seed\": \"7\"";
    const std::size_t at = text.find(before);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, before.size(), "\"campaign_seed\": \"9\"");
    spit(b, text);

    const std::string out = dir + "/tamper_out.json";
    const std::string err = mergeShardReports({a, b}, out);
    // Caught either as a cross-file seed mismatch or, for a full
    // tampered set, as the per-row splitSeed consistency check; this
    // mix trips the cross-file check first.
    EXPECT_NE(err.find("does not match"), std::string::npos) << err;

    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(ShardMerge, RejectsMissingFileAndEmptyInput)
{
    const std::string out = testing::TempDir() + "/none_out.json";
    EXPECT_EQ(mergeShardReports({}, out), "no shard files given");
    const std::string err = mergeShardReports(
        {testing::TempDir() + "/does_not_exist.json"}, out);
    EXPECT_FALSE(err.empty());
}

/**
 * Merge one unsharded tinyGrid(5) report after @p edit rewrites its
 * text (@p tag keeps the files apart). The merge must be rejected
 * with one line that names the file, and must write nothing; returns
 * the message.
 */
std::string
rejectEdited(const std::string &tag,
             const std::function<void(std::string &)> &edit)
{
    const std::string path = testing::TempDir() + "/" + tag + ".json";
    const std::string out = testing::TempDir() + "/" + tag + "_out.json";
    writeShard(path, 5, 7, ShardSpec{0, 1});
    std::string text = slurp(path);
    edit(text);
    spit(path, text);
    std::remove(out.c_str());

    const std::string err = mergeShardReports({path}, out);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_FALSE(std::ifstream(out).good()) << "rejected merge wrote "
                                            << out;
    std::remove(path.c_str());
    return err;
}

/** Replace the first @p from in @p text with @p to. */
void
replaceFirst(std::string &text, const std::string &from,
             const std::string &to)
{
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
}

TEST(ShardMerge, RejectsGarbageHexValue)
{
    const std::string err = rejectEdited("bad_hex", [](std::string &t) {
        const std::string key = "\"hex\": {\"x\": \"";
        const std::size_t hex = t.find(key);
        ASSERT_NE(hex, std::string::npos);
        const std::size_t from = hex + key.size();
        t.replace(from, t.find('"', from) - from, "garbage");
    });
    EXPECT_NE(err.find("\"garbage\" is not a finite number"),
              std::string::npos)
        << err;
}

/** The writers escape only the quote and the backslash, so a cell
 *  name with any other escape is refused, not merged under a rewritten
 *  name (tiny/1\tx\u0041 used to merge as tiny/1txu0041). */
TEST(ShardMerge, RejectsEscapesTheWritersNeverEmit)
{
    const std::string err = rejectEdited("bad_escape", [](std::string &t) {
        replaceFirst(t, "\"name\": \"tiny/1\"",
                     "\"name\": \"tiny/1\\tx\\u0041\"");
    });
    EXPECT_NE(err.find("unsupported escape"), std::string::npos) << err;
}

/** A seed is only what BenchReport writes, "0x" and 16 lowercase hex
 *  digits; strtoull alone would also read a sign, a blank or a second
 *  "0x" after the prefix as the same value. */
TEST(ShardMerge, RejectsLooseSeedSpellings)
{
    for (const std::string prefix : {"0x+", "0x ", "0x0x"}) {
        SCOPED_TRACE(prefix);
        const std::string err =
            rejectEdited("loose_seed", [&](std::string &t) {
                replaceFirst(t, "\"seed\": \"0x", "\"seed\": \"" + prefix);
            });
        EXPECT_NE(err.find("has a malformed seed \"" + prefix),
                  std::string::npos)
            << err;
    }
}

TEST(ShardMerge, RejectsFractionalIndex)
{
    const std::string err = rejectEdited("frac_index", [](std::string &t) {
        replaceFirst(t, "\"index\": 1,", "\"index\": 1.5,");
    });
    EXPECT_NE(err.find("cell index 1.5 is not a non-negative integer"),
              std::string::npos)
        << err;
}

TEST(ShardMerge, RejectsNegativeIndex)
{
    const std::string err = rejectEdited("neg_index", [](std::string &t) {
        replaceFirst(t, "\"index\": 1,", "\"index\": -1,");
    });
    EXPECT_NE(err.find("cell index -1 is not a non-negative integer"),
              std::string::npos)
        << err;
}

TEST(ShardMerge, RejectsNonIntegerManifestThreads)
{
    const std::string err = rejectEdited("bad_threads", [](std::string &t) {
        replaceFirst(t, "\"manifest\": {", "\"manifest\": {\"threads\": -2, ");
    });
    EXPECT_NE(err.find("\"threads\" is not a non-negative integer"),
              std::string::npos)
        << err;
}

/** A grid size far past the rows the shard set holds must be refused
 *  before anything is sized by it (it used to abort in bad_alloc). */
TEST(ShardMerge, RejectsGridSizeBeyondTheRows)
{
    const std::string err = rejectEdited("huge_grid", [](std::string &t) {
        replaceFirst(t, "\"grid_size\": \"5\"",
                     "\"grid_size\": \"99999999999999\"");
    });
    EXPECT_NE(err.find("missing cell 5"), std::string::npos) << err;
}

/**
 * The seeded mutation loop over the JSON parser and the merge: byte
 * mutants of a 2-shard report set must either merge or be rejected
 * with a one-line error that writes nothing -- never crash or hang.
 * A mutant that merges yields a canonical report, which must merge
 * again to the same bytes.
 */
TEST(ShardMerge, MutatedShardSetsMergeOrFailOnOneLine)
{
    const std::string dir = testing::TempDir();
    const std::string paths[2] = {dir + "/fuzz_a.json",
                                  dir + "/fuzz_b.json"};
    writeShard(paths[0], 5, 7, ShardSpec{0, 2});
    writeShard(paths[1], 5, 7, ShardSpec{1, 2});
    const std::string texts[2] = {slurp(paths[0]), slurp(paths[1])};
    const std::string out = dir + "/fuzz_out.json";
    const std::string again = dir + "/fuzz_again.json";

    // Bytes the grammar cares about, so mutants reach past the lexer.
    static const char kBytes[] = "0123456789-+.eEx\"{}[],: \\n";
    Rng rng(2024);
    std::size_t merged = 0;
    std::size_t rejected = 0;
    for (int n = 0; n < 3000; ++n) {
        const std::size_t victim = n % 2;
        std::string text = texts[victim];
        const std::uint64_t edits = 1 + rng.nextBounded(3);
        for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
            const std::size_t pos = rng.nextBounded(text.size());
            const char byte = kBytes[rng.nextBounded(sizeof(kBytes) - 1)];
            switch (rng.nextBounded(4)) {
              case 0:
                text[pos] = byte;
                break;
              case 1:
                text[pos] = static_cast<char>(rng.nextBounded(256));
                break;
              case 2:
                text.erase(pos, 1 + rng.nextBounded(8));
                break;
              default:
                text.insert(pos, 1, byte);
                break;
            }
        }
        spit(paths[victim], text);
        spit(paths[1 - victim], texts[1 - victim]);
        std::remove(out.c_str());

        const std::string err =
            mergeShardReports({paths[0], paths[1]}, out);
        if (err.empty()) {
            ++merged;
            ASSERT_TRUE(mergeShardReports({out}, again).empty())
                << "mutant " << n;
            EXPECT_EQ(slurp(again), slurp(out)) << "mutant " << n;
        } else {
            ++rejected;
            EXPECT_EQ(err.find('\n'), std::string::npos)
                << "mutant " << n << ": " << err;
            EXPECT_FALSE(std::ifstream(out).good())
                << "mutant " << n << ": " << err;
        }
    }
    // Mutants of the decimal map or the manifest strings still merge;
    // structural ones are rejected. Both paths must have run.
    EXPECT_GT(merged, 0u);
    EXPECT_GT(rejected, 0u);
    for (const std::string &p : {paths[0], paths[1], out, again})
        std::remove(p.c_str());
}

TEST(ShardCampaign, SubsetMisuseIsFatal)
{
    CampaignConfig cfg;
    cfg.threads = 1;
    EXPECT_EXIT(Campaign(cfg).run(tinyGrid(4), {1, 1, 2}),
                testing::ExitedWithCode(1), "strictly increasing");
    EXPECT_EXIT(Campaign(cfg).run(tinyGrid(4), {5}),
                testing::ExitedWithCode(1), "out of range");
}

} // namespace
