/**
 * @file
 * Tests for the defense spec grammar and the built-in policy table:
 * parsing, loud failure on unknown or malformed specs, parse ->
 * instantiate -> name round-trips, and a seeded mutation loop over
 * every spec the registered grids name.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "defense/registry.hh"
#include "nic/igb_driver.hh"
#include "nic/rss.hh"
#include "sim/rng.hh"
#include "workload/attack_eval.hh"
#include "workload/defense_eval.hh"
#include "workload/detect_eval.hh"

using namespace pktchase;
using namespace pktchase::defense;

namespace
{

/** Death-test regex: the whole of stderr is one "fatal:" line. */
constexpr const char *kOneFatalLine = "^fatal: [^\n]*\n$";

} // namespace

TEST(SpecParse, FieldsOfValidSpecs)
{
    const Spec partial = parseSpec("ring.partial:1000");
    EXPECT_EQ(partial.domain, "ring");
    EXPECT_EQ(partial.policy, "partial");
    EXPECT_TRUE(partial.hasParam);
    EXPECT_EQ(partial.param, 1000u);

    const Spec ways = parseSpec("cache.ddio-ways:2");
    EXPECT_EQ(ways.domain, "cache");
    EXPECT_EQ(ways.policy, "ddio-ways");
    EXPECT_TRUE(ways.hasParam);
    EXPECT_EQ(ways.param, 2u);

    const Spec none = parseSpec("ring.none");
    EXPECT_EQ(none.domain, "ring");
    EXPECT_EQ(none.policy, "none");
    EXPECT_FALSE(none.hasParam);
}

TEST(SpecParse, SyntaxCheckIsNonFatal)
{
    EXPECT_TRUE(contains("ring.partial:1000"));
    EXPECT_TRUE(contains("cache.ddio"));
    EXPECT_TRUE(contains("nic.queues:4"));
    EXPECT_FALSE(contains("partial"));
    EXPECT_FALSE(contains("ring"));
    EXPECT_FALSE(contains("ring."));
    EXPECT_FALSE(contains(".partial"));
    EXPECT_FALSE(contains("mac.partial"));
    EXPECT_FALSE(contains("ring.partial:"));
    EXPECT_FALSE(contains("ring.partial:10x"));
    EXPECT_FALSE(contains("ring.partial:1:2"));
    EXPECT_FALSE(contains("ring.partial:99999999999999999999999"));
    EXPECT_FALSE(contains(""));
}

TEST(SpecParseDeath, MalformedSpecFatal)
{
    EXPECT_EXIT(parseSpec("bogus"), ::testing::ExitedWithCode(1),
                "malformed spec");
    EXPECT_EXIT(parseSpec("ring.partial:abc"),
                ::testing::ExitedWithCode(1), "malformed spec");
}

TEST(RegistryDeath, UnknownPolicyNamesFailLoudly)
{
    EXPECT_EXIT(makeRingPolicy("ring.nope"),
                ::testing::ExitedWithCode(1), "unknown ring policy");
    EXPECT_EXIT(makeCachePolicy("cache.nope"),
                ::testing::ExitedWithCode(1), "unknown cache policy");
    // Wrong domain for the factory is as loud as an unknown name.
    EXPECT_EXIT(makeRingPolicy("cache.ddio"),
                ::testing::ExitedWithCode(1), "not a ring spec");
    EXPECT_EXIT(makeCachePolicy("ring.none"),
                ::testing::ExitedWithCode(1), "not a cache spec");
}

TEST(RegistryDeath, ParamOnParamlessPolicyFatal)
{
    EXPECT_EXIT(makeRingPolicy("ring.none:5"),
                ::testing::ExitedWithCode(1),
                "does not take a parameter");
    EXPECT_EXIT(makeCachePolicy("cache.adaptive:1"),
                ::testing::ExitedWithCode(1),
                "does not take a parameter");
}

TEST(RegistryDeath, ZeroParamsRejectedByPolicies)
{
    EXPECT_EXIT(makeRingPolicy("ring.partial:0"),
                ::testing::ExitedWithCode(1), "interval");
    EXPECT_EXIT(makeRingPolicy("ring.quarantine:0"),
                ::testing::ExitedWithCode(1), "depth");
    EXPECT_EXIT(makeCachePolicy("cache.ddio-ways:0"),
                ::testing::ExitedWithCode(1), "ddio-ways");
}

TEST(RegistryDeath, OversizedAndNestedZeroCountsFatal)
{
    // A way count past UINT_MAX must not truncate (here to 1 way).
    EXPECT_EXIT(canonicalSpec("cache.ddio-ways:4294967297"),
                ::testing::ExitedWithCode(1),
                "^fatal: [^\n]*does not fit[^\n]*\n$");
    // A gated wrapper's inner policy is built by the same factories.
    EXPECT_EXIT(makeRingPolicy("ring.gated:cadence:partial.0"),
                ::testing::ExitedWithCode(1), "interval");
}

TEST(Registry, ContainsRejectsExactlyWhatTheFactoriesReject)
{
    // Each spec parses and names a registered policy, but its factory
    // refuses the count (see the death tests above).
    EXPECT_FALSE(contains("ring.partial:0"));
    EXPECT_FALSE(contains("ring.quarantine:0"));
    EXPECT_FALSE(contains("cache.ddio-ways:0"));
    EXPECT_FALSE(contains("ring.gated:cadence:partial.0"));
    EXPECT_FALSE(contains("cache.ddio-ways:4294967297"));
    // The boundary counts the factories still take.
    EXPECT_TRUE(contains("ring.partial:1"));
    EXPECT_TRUE(contains("ring.quarantine:1"));
    EXPECT_TRUE(contains("ring.gated:cadence:partial.1"));
    EXPECT_TRUE(contains("cache.ddio-ways:4294967295"));
    EXPECT_EQ(canonicalSpec("cache.ddio-ways:4294967295"),
              "cache.ddio-ways:4294967295");
}

TEST(Registry, ContainsKnowsBuiltInsAndRejectsUnknowns)
{
    EXPECT_TRUE(contains("ring.none"));
    EXPECT_TRUE(contains("ring.partial:1000"));
    EXPECT_TRUE(contains("cache.ddio-ways:2"));
    EXPECT_FALSE(contains("ring.nope"));
    EXPECT_FALSE(contains("cache.ddio:2"));  // param not taken
    EXPECT_FALSE(contains("gibberish"));
}

TEST(Registry, BuiltInNamesListed)
{
    const auto ring = names("ring");
    const auto cache = names("cache");
    const auto nic = names("nic");
    EXPECT_EQ(ring, (std::vector<std::string>{
        "ring.full", "ring.gated", "ring.none", "ring.offset",
        "ring.partial", "ring.quarantine"}));
    EXPECT_EQ(cache, (std::vector<std::string>{
        "cache.adaptive", "cache.ddio", "cache.ddio-ways",
        "cache.no-ddio"}));
    EXPECT_EQ(nic, (std::vector<std::string>{"nic.queues"}));
    for (const auto &domain : {ring, cache, nic}) {
        for (const auto &n : domain)
            EXPECT_FALSE(description(n).empty()) << n;
    }
    // A spec contains() accepts has its policy's description.
    EXPECT_EQ(description("nic.queues:4"), description("nic.queues"));
    EXPECT_EQ(description("ring.gated:cadence:partial.1000"),
              description("ring.gated"));
}

TEST(RegistryDeath, DescriptionAndNamesRejectWhatTheyDoNotList)
{
    // cache.ddio takes no count, so contains() rejects this spec.
    EXPECT_EXIT(description("cache.ddio:5"),
                ::testing::ExitedWithCode(1), kOneFatalLine);
    EXPECT_EXIT(names("mac"), ::testing::ExitedWithCode(1),
                kOneFatalLine);
}

TEST(Registry, ParseInstantiateNameRoundTrip)
{
    // Canonicalizing a spec is a fixed point: parse -> instantiate ->
    // name yields a string that parses and instantiates to itself.
    const char *specs[] = {
        "ring.none", "ring.full", "ring.partial", "ring.partial:777",
        "ring.offset", "ring.quarantine", "ring.quarantine:4",
        "cache.no-ddio", "cache.ddio", "cache.ddio-ways",
        "cache.ddio-ways:3", "cache.adaptive",
    };
    for (const char *spec : specs) {
        const std::string canon = canonicalSpec(spec);
        EXPECT_EQ(canonicalSpec(canon), canon) << spec;
        EXPECT_TRUE(contains(canon)) << spec;
    }
}

TEST(Registry, DefaultsComeFromThePolicies)
{
    // The spec-default interval has a single source of truth in
    // PartialPeriodicPolicy (and likewise for the quarantine depth).
    EXPECT_EQ(canonicalSpec("ring.partial"),
              "ring.partial:" + std::to_string(
                  nic::PartialPeriodicPolicy::kDefaultInterval));
    EXPECT_EQ(canonicalSpec("ring.quarantine"),
              "ring.quarantine:" + std::to_string(
                  nic::QuarantinePolicy::kDefaultDepth));
}

TEST(Cell, NameAndParseRoundTrip)
{
    const Cell cell{"ring.partial:1000", "cache.ddio"};
    EXPECT_EQ(cell.name(), "ring.partial:1000+cache.ddio");
    const Cell back = parseCell(cell.name());
    EXPECT_EQ(back.ring, "ring.partial:1000");
    EXPECT_EQ(back.cache, "cache.ddio");
    EXPECT_EQ(back.name(), cell.name());

    // Defaults become explicit in the canonical name.
    EXPECT_EQ(Cell{}.name(), "ring.none+cache.ddio");
    EXPECT_EQ((Cell{"ring.partial", "cache.ddio-ways"}).name(),
              "ring.partial:1000+cache.ddio-ways:2");
}

TEST(CellDeath, MalformedCellsFatal)
{
    EXPECT_EXIT(parseCell("ring.none"), ::testing::ExitedWithCode(1),
                "malformed cell");
    EXPECT_EXIT(parseCell("cache.ddio+ring.none"),
                ::testing::ExitedWithCode(1), "ring spec");
    // A trailing '+' is not a default nic spec.
    EXPECT_EXIT(parseCell("ring.none+cache.ddio+"),
                ::testing::ExitedWithCode(1), "malformed cell");
    // Parts of the right domain that name nothing buildable.
    for (const char *cell :
         {"ring.nope+cache.ddio", "ring.partial:0+cache.ddio",
          "ring.gated+cache.ddio", "ring.none+cache.ddio-ways:0"}) {
        EXPECT_EXIT(parseCell(cell), ::testing::ExitedWithCode(1),
                    kOneFatalLine)
            << cell;
    }
}

TEST(NicSpec, QueueCountsParseAndCanonicalize)
{
    // Single source of truth: the parser's default is the IgbConfig
    // default is nic::kDefaultQueues.
    EXPECT_EQ(nicQueues(""), nic::kDefaultQueues);
    EXPECT_EQ(nicQueues("nic.queues"), nic::kDefaultQueues);
    EXPECT_EQ(nic::IgbConfig{}.queues, nic::kDefaultQueues);

    EXPECT_EQ(nicQueues("nic.queues:4"), 4u);
    EXPECT_EQ(nicSpecOf(4), "nic.queues:4");
    EXPECT_EQ(canonicalSpec("nic.queues:4"), "nic.queues:4");
}

TEST(NicSpecDeath, BadQueueSpecsFatal)
{
    EXPECT_EXIT(nicQueues("nic.rings:4"), ::testing::ExitedWithCode(1),
                "nic.queues");
    EXPECT_EXIT(nicQueues("nic.queues:0"),
                ::testing::ExitedWithCode(1), "must be in");
    EXPECT_EXIT(nicQueues("ring.none"), ::testing::ExitedWithCode(1),
                "nic.queues");
}

TEST(SpecGrammar, EdgesTheMutantLoopNeverDraws)
{
    // The steering table's size is the largest queue count a spec
    // may name, and the count one past it is refused.
    const std::string most = nicSpecOf(nic::RssSteering::kRetaEntries);
    EXPECT_EQ(most, "nic.queues:128");
    EXPECT_TRUE(contains(most));
    EXPECT_EQ(nicQueues(most), nic::RssSteering::kRetaEntries);
    EXPECT_EQ(parseCell("ring.none+cache.ddio+" + most).queues(),
              nic::RssSteering::kRetaEntries);
    EXPECT_FALSE(contains("nic.queues:129"));

    // A gate cannot wrap another gate.
    EXPECT_FALSE(contains(
        "ring.gated:cadence:gated.cadence"));
}

TEST(SpecGrammarDeath, EdgesTheMutantLoopNeverDrawsFatal)
{
    EXPECT_EXIT(nicQueues("nic.queues:129"),
                ::testing::ExitedWithCode(1), kOneFatalLine);
    // The reason names the text the caller passed, not the inner
    // spec it wraps.
    EXPECT_EXIT(makeRingPolicy("ring.gated:cadence:gated.cadence"),
                ::testing::ExitedWithCode(1),
                "^fatal: [^\n]*\"ring\\.gated:cadence:gated\\.cadence\"[^\n]*\n$");
}

TEST(Cell, NicPartRoundTripsAndDefaultIsOmitted)
{
    // Default queue count: the name is exactly the single-ring form,
    // so pre-multi-queue golden names remain valid.
    defense::Cell single{"ring.none", "cache.ddio", "nic.queues:1"};
    EXPECT_EQ(single.name(), "ring.none+cache.ddio");
    EXPECT_EQ(single.queues(), 1u);

    defense::Cell multi{"ring.partial", "cache.ddio", "nic.queues:4"};
    EXPECT_EQ(multi.name(),
              "ring.partial:1000+cache.ddio+nic.queues:4");
    EXPECT_EQ(multi.queues(), 4u);

    const defense::Cell back = parseCell(multi.name());
    EXPECT_EQ(back.nic, "nic.queues:4");
    EXPECT_EQ(back.queues(), 4u);
    EXPECT_EQ(back.name(), multi.name());
}

namespace
{

/**
 * Every spec the registered grids name: the canonical cell names of
 * each grid's cell list, split at '+' -- so the seeds include the
 * ring.gated:<detector>:<inner> production and the nic specs.
 */
std::vector<std::string>
gridSpecs()
{
    std::set<std::string> specs;
    for (const std::vector<Cell> &cells :
         {workload::fig16Cells(), workload::extendedCells(),
          workload::fig16qCells(), workload::fig20Cells(),
          workload::figD2Cells()}) {
        for (const Cell &cell : cells) {
            const std::string name = cell.name();
            std::size_t start = 0;
            for (std::size_t plus = name.find('+');
                 plus != std::string::npos;
                 plus = name.find('+', start)) {
                specs.insert(name.substr(start, plus - start));
                start = plus + 1;
            }
            specs.insert(name.substr(start));
        }
    }
    return {specs.begin(), specs.end()};
}

} // namespace

/**
 * The seeded mutation loop over the spec grammar: each byte mutant of
 * a grid spec must either be rejected by contains(), or canonicalize
 * to a spec that contains() accepts and that is its own canonical
 * form. A sample of the rejected mutants must then fail its factory
 * -- makeRing, makeCache, or parseCell for nic specs -- with exactly
 * one fatal line.
 */
TEST(SpecGrammar, MutantsAreRejectedOrCanonicalize)
{
    const std::vector<std::string> seeds = gridSpecs();
    ASSERT_GE(seeds.size(), 10u);

    // Bytes the grammar cares about, so mutants reach past the lexer,
    // and counts at the edges of what the policies accept.
    static const char kBytes[] = "0123456789.:+-abcdefgilnopqrstuwy";
    static const char *const kCounts[] = {
        "0", "1", "4294967295", "4294967296", "18446744073709551615",
        "99999999999999999999"};
    Rng rng(2026);
    std::vector<std::pair<std::string, std::string>> rejected;
    std::size_t accepted = 0;
    for (std::size_t n = 0; n < 4000; ++n) {
        const std::string &seed = seeds[n % seeds.size()];
        std::string text = seed;
        const std::uint64_t edits = 1 + rng.nextBounded(3);
        for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
            const std::size_t pos = rng.nextBounded(text.size());
            const char byte = kBytes[rng.nextBounded(sizeof(kBytes) - 1)];
            switch (rng.nextBounded(5)) {
              case 0:
                text[pos] = byte;
                break;
              case 1:
                text[pos] = static_cast<char>(rng.nextBounded(256));
                break;
              case 2:
                text.erase(pos, 1 + rng.nextBounded(4));
                break;
              case 3:
                text.insert(pos, 1, byte);
                break;
              default:
                // Replace whatever follows the last ':' or '.'.
                text = text.substr(0, text.find_last_of(":.") + 1) +
                    kCounts[rng.nextBounded(std::size(kCounts))];
                break;
            }
        }
        if (!contains(text)) {
            rejected.emplace_back(seed, text);
            continue;
        }
        ++accepted;
        const std::string canon = canonicalSpec(text);
        EXPECT_TRUE(contains(canon)) << text << " -> " << canon;
        EXPECT_EQ(canonicalSpec(canon), canon) << text;
    }
    // Parameter digits mutate into other valid specs; most structural
    // mutants are rejected. Both paths must have run.
    EXPECT_GT(accepted, 0u);
    ASSERT_GE(rejected.size(), 100u);

    // Each death test forks, so only a sample of about 100 runs.
    const std::size_t stride = rejected.size() / 100;
    for (std::size_t i = 0; i < rejected.size(); i += stride) {
        const auto &[seed, text] = rejected[i];
        SCOPED_TRACE("mutant of " + seed + ": " + text);
        if (seed.rfind("ring.", 0) == 0) {
            EXPECT_EXIT(makeRingPolicy(text),
                        ::testing::ExitedWithCode(1), kOneFatalLine);
        } else if (seed.rfind("cache.", 0) == 0) {
            EXPECT_EXIT(makeCachePolicy(text),
                        ::testing::ExitedWithCode(1), kOneFatalLine);
        } else {
            EXPECT_EXIT(parseCell("ring.none+cache.ddio+" + text),
                        ::testing::ExitedWithCode(1), kOneFatalLine);
        }
    }
}
