/**
 * @file
 * Tests for Algorithm 1 (ring sequence recovery): graph construction
 * and traversal on synthetic activation streams, plus the scoring
 * helper.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "attack/sequencer.hh"
#include "net/traffic.hh"
#include "testbed/testbed.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace pktchase;
using namespace pktchase::attack;

namespace
{

/**
 * Build one ProbeSample per activation: the ring sequence observed
 * cleanly, one set per round, repeated for @p laps.
 */
std::vector<ProbeSample>
cleanStream(const std::vector<int> &ring, std::size_t n_sets,
            std::size_t laps)
{
    std::vector<ProbeSample> samples;
    Cycles t = 0;
    for (std::size_t lap = 0; lap < laps; ++lap) {
        for (int node : ring) {
            ProbeSample s;
            s.start = t;
            s.end = t + 100;
            t += 1000;
            s.active.assign(n_sets, 0);
            s.active[static_cast<std::size_t>(node)] = 1;
            samples.push_back(std::move(s));
        }
    }
    return samples;
}

/** Rotate @p v so it starts at its minimum element (canonical form). */
std::vector<int>
canonical(std::vector<int> v)
{
    if (v.empty())
        return v;
    auto it = std::min_element(v.begin(), v.end());
    std::rotate(v.begin(), it, v.end());
    return v;
}

} // namespace

TEST(Sequencer, RecoversSimpleRing)
{
    const std::vector<int> ring{0, 3, 1, 4, 2, 5};
    const auto samples = cleanStream(ring, 6, 20);
    const auto seq = Sequencer::sequenceFromSamples(samples, 6, 3);
    EXPECT_EQ(canonical(seq), canonical(ring));
}

TEST(Sequencer, RecoversRingWithRepeatedSet)
{
    // Set 2 hosts two buffers; one node of history disambiguates (the
    // Fig. 9 example).
    const std::vector<int> ring{0, 2, 3, 1, 2, 4};
    const auto samples = cleanStream(ring, 5, 30);
    const auto seq = Sequencer::sequenceFromSamples(samples, 5, 3);
    EXPECT_EQ(cyclicLevenshtein(seq, ring), 0u);
}

TEST(Sequencer, MergesWidePeaks)
{
    // Each activation seen twice in adjacent rounds must not create
    // phantom buffers.
    const std::vector<int> ring{0, 1, 2, 3};
    std::vector<ProbeSample> samples;
    Cycles t = 0;
    for (int lap = 0; lap < 20; ++lap) {
        for (int node : ring) {
            for (int rep = 0; rep < 2; ++rep) {
                ProbeSample s;
                s.start = t;
                s.end = t + 100;
                t += 1000;
                s.active.assign(4, 0);
                s.active[static_cast<std::size_t>(node)] = 1;
                samples.push_back(std::move(s));
            }
        }
    }
    const auto seq = Sequencer::sequenceFromSamples(samples, 4, 3);
    EXPECT_EQ(canonical(seq), canonical(ring));
}

TEST(Sequencer, ToleratesSporadicNoise)
{
    const std::vector<int> ring{0, 4, 1, 5, 2, 6, 3, 7};
    auto samples = cleanStream(ring, 8, 60);
    // Flip a few random activity bits.
    Rng rng(5);
    for (int k = 0; k < 40; ++k) {
        auto &s = samples[rng.nextBounded(samples.size())];
        s.active[rng.nextBounded(8)] ^= 1;
    }
    const auto seq = Sequencer::sequenceFromSamples(samples, 8, 3);
    // Small distance acceptable; total garbage is not.
    EXPECT_LE(cyclicLevenshtein(seq, ring), 2u);
}

TEST(Sequencer, ToleratesMissedActivations)
{
    const std::vector<int> ring{0, 1, 2, 3, 4, 5};
    auto samples = cleanStream(ring, 6, 50);
    Rng rng(6);
    // Drop 5% of activations entirely.
    for (auto &s : samples)
        if (rng.nextBool(0.05))
            std::fill(s.active.begin(), s.active.end(), 0);
    const auto seq = Sequencer::sequenceFromSamples(samples, 6, 3);
    EXPECT_LE(cyclicLevenshtein(seq, ring), 1u);
}

TEST(Sequencer, EmptySamplesYieldEmptySequence)
{
    const auto seq = Sequencer::sequenceFromSamples({}, 4, 3);
    EXPECT_TRUE(seq.empty());
}

TEST(Sequencer, NoEdgeOverTheCutoffYieldsNoRing)
{
    // An idle ring's trace over a 32-set window: set 25 fires in
    // rounds 100 and 1500, set 7 in round 900. No edge reaches the
    // cutoff, so the walk follows none and there is no ring -- not a
    // one-node ring of the root state's node.
    std::vector<ProbeSample> samples(2001);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i].start = static_cast<Cycles>(i) * 1000;
        samples[i].end = samples[i].start + 100;
        samples[i].active.assign(32, 0);
    }
    samples[100].active[25] = 1;
    samples[900].active[7] = 1;
    samples[1500].active[25] = 1;
    EXPECT_TRUE(Sequencer::sequenceFromSamples(samples, 32, 3).empty());
}

TEST(Sequencer, PureNoiseYieldsShortSequence)
{
    // With no ring structure the cutoff should terminate the walk
    // long before fabricating a full ring.
    std::vector<ProbeSample> samples;
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        ProbeSample s;
        s.start = static_cast<Cycles>(i) * 1000;
        s.end = s.start + 100;
        s.active.assign(16, 0);
        s.active[rng.nextBounded(16)] = rng.nextBool(0.3);
        samples.push_back(std::move(s));
    }
    const auto seq = Sequencer::sequenceFromSamples(samples, 16, 3);
    EXPECT_LT(seq.size(), 200u);
}

TEST(ExpectedMonitorSequence, FiltersAndMaps)
{
    const std::vector<std::size_t> ring_sets{10, 20, 30, 40, 20, 50};
    const std::vector<std::size_t> monitored{20, 40};
    const auto expected = expectedMonitorSequence(ring_sets, monitored);
    // Ring restricted to monitored: 20, 40, 20 -> 0, 1, 0; across the
    // lap boundary the trailing and leading 0 are observably adjacent
    // and merge, leaving the cycle (0, 1).
    EXPECT_EQ(expected, (std::vector<int>{0, 1}));
}

TEST(ExpectedMonitorSequence, MergesAdjacentDuplicates)
{
    const std::vector<std::size_t> ring_sets{10, 20, 99, 20, 30};
    const std::vector<std::size_t> monitored{20, 30};
    // 20, (99 unmonitored), 20, 30 -> 0, 0, 1 -> merged 0, 1.
    const auto expected = expectedMonitorSequence(ring_sets, monitored);
    EXPECT_EQ(expected, (std::vector<int>{0, 1}));
}

TEST(ExpectedMonitorSequence, DropsCyclicWrapDuplicate)
{
    const std::vector<std::size_t> ring_sets{20, 10, 30, 20};
    const std::vector<std::size_t> monitored{20, 30};
    const auto expected = expectedMonitorSequence(ring_sets, monitored);
    // 0, 1, 0 with wrap duplicate dropped -> 0, 1.
    EXPECT_EQ(expected, (std::vector<int>{0, 1}));
}

TEST(ExpectedMonitorSequence, EmptyWhenNothingMonitored)
{
    EXPECT_TRUE(expectedMonitorSequence({1, 2, 3}, {9}).empty());
}

TEST(FullRingRecovery, PlacesNearlyAllCombosExactlyOnce)
{
    // Structural contract of the incremental extension: almost every
    // active combo gets placed, each exactly once beyond the initial
    // window (global order is approximate; see the class comment).
    testbed::Testbed tb(testbed::TestbedConfig{});
    auto active = tb.activeCombos();
    active.resize(48); // keep the test fast: 16 extension rounds
    net::TrafficPump pump(
        tb.eq(), tb.driver(),
        std::make_unique<net::ConstantStream>(128, 100000.0, 0),
        tb.eq().now() + 1000);
    SequencerConfig cfg;
    cfg.nSamples = 12000;
    cfg.probeRateHz = 100000;
    cfg.probe.ways = tb.config().llc.geom.ways;
    FullRingRecovery rec(tb.hier(), tb.groups(), active, cfg);
    const auto master = rec.recover(tb.eq());

    EXPECT_GE(master.size(), active.size() - 6);
    EXPECT_LE(rec.unplaced().size(), 6u);
    // Every placed combo is active; extension combos appear once.
    std::map<std::size_t, unsigned> counts;
    for (std::size_t c : master)
        ++counts[c];
    for (std::size_t ci = 32; ci < active.size(); ++ci)
        EXPECT_LE(counts[active[ci]], 1u);
}

TEST(FullRingRecovery, UnplacedListsEveryActiveComboNotPlaced)
{
    // An idle ring gives the first window too little signal to seed
    // the extension rounds; every active combo the result lacks must
    // still be reported as unplaced.
    testbed::Testbed tb(testbed::TestbedConfig{});
    auto active = tb.activeCombos();
    active.resize(40);
    SequencerConfig cfg;
    cfg.nSamples = 2000;
    cfg.probe.ways = tb.config().llc.geom.ways;
    FullRingRecovery rec(tb.hier(), tb.groups(), active, cfg);
    const auto master = rec.recover(tb.eq());

    std::set<std::size_t> covered(master.begin(), master.end());
    for (std::size_t c : rec.unplaced()) {
        EXPECT_EQ(std::count(master.begin(), master.end(), c), 0)
            << "combo " << c << " is both placed and unplaced";
        covered.insert(c);
    }
    EXPECT_EQ(covered, std::set<std::size_t>(active.begin(), active.end()));
}
