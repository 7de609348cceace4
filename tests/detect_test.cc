/**
 * @file
 * Unit tests for the detection subsystem: epoch rolling in the
 * counter probes, the three detectors' score/alarm semantics on
 * synthetic counter streams, gate hysteresis, the rig's fan-out, the
 * gated-policy spec grammar, and the end-to-end wiring (a gated
 * testbed arms and pays only while armed; telemetry attach/detach is
 * zero-cost when absent).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "attack/footprint.hh"
#include "defense/gated_policy.hh"
#include "defense/registry.hh"
#include "detect/counters.hh"
#include "detect/detector.hh"
#include "detect/gate.hh"
#include "detect/rig.hh"
#include "net/traffic.hh"
#include "obs/stats.hh"
#include "testbed/testbed.hh"
#include "workload/detect_eval.hh"

using namespace pktchase;
using namespace pktchase::detect;

namespace
{

/** Synthetic LLC sample at @p epoch with the given counters. */
LlcSample
llcSample(std::uint64_t epoch, std::uint64_t misses,
          std::uint64_t conflicts, Cycles width = kDefaultEpochCycles)
{
    LlcSample s;
    s.epoch = epoch;
    s.start = epoch * width;
    s.end = s.start + width;
    s.cpuMisses = misses;
    s.ioConflicts = conflicts;
    return s;
}

/** Synthetic aggregate sample with the given per-queue counts. */
RxAggSample
aggSample(std::uint64_t epoch, const std::vector<std::uint64_t> &counts)
{
    RxAggSample s;
    s.epoch = epoch;
    s.end = (epoch + 1) * kDefaultEpochCycles;
    for (std::uint64_t c : counts)
        s.total += c;
    s.perQueue = counts;
    return s;
}

/** Records every published sample, per source. */
struct Recorder : SampleSink
{
    std::vector<LlcSample> llc;
    std::vector<RxAggSample> agg;

    void publish(const LlcSample &s) override { llc.push_back(s); }
    void publish(const RxAggSample &s) override { agg.push_back(s); }
};

} // namespace

// ------------------------------------------------------------- probes --

TEST(LlcCounterProbe, RollsEpochsAndZeroFillsGaps)
{
    Recorder rec;
    LlcCounterProbe probe(rec, 1000);

    probe.cpuAccess(false, 100); // epoch 0
    probe.cpuAccess(true, 500);  // epoch 0
    probe.ioInjection(3500);     // epoch 3: publishes 0,1,2
    const std::vector<LlcSample> &samples = rec.llc;
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].epoch, 0u);
    EXPECT_EQ(samples[0].cpuMisses, 1u);
    EXPECT_EQ(samples[0].ioConflicts, 0u);
    EXPECT_EQ(samples[1].cpuMisses, 0u); // zero-filled
    EXPECT_EQ(samples[1].ioConflicts, 0u);
    EXPECT_EQ(samples[2].cpuMisses, 0u);
    EXPECT_EQ(samples[2].ioConflicts, 0u);

    // The epoch still open is published by the first later event.
    probe.ioLineConflict(3600);
    probe.cpuAccess(false, 4100); // epoch 4: publishes 3
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[3].epoch, 3u);
    EXPECT_EQ(samples[3].start, 3000u);
    EXPECT_EQ(samples[3].end, 4000u);
    EXPECT_EQ(samples[3].cpuMisses, 0u);
    EXPECT_EQ(samples[3].ioConflicts, 1u);
}

TEST(LlcCounterProbe, LongIdleGapCatchUpIsBounded)
{
    Recorder rec;
    LlcCounterProbe probe(rec, 1000);
    probe.cpuAccess(false, 100);
    // A gap of a million epochs publishes at most the catch-up bound
    // plus the pending epoch, not a million zero samples.
    probe.cpuAccess(false, Cycles(1000) * 1000 * 1000);
    EXPECT_LE(rec.llc.size(), LlcCounterProbe::kMaxCatchUp + 1);
}

TEST(RxCounterProbe, AggregatesRecyclesPerQueue)
{
    Recorder rec;
    RxCounterProbe probe(rec, 1000, 2);

    // Queue 0 recycles three buffers, queue 1 one, all in epoch 0.
    probe.onRecycle(0, 10);
    probe.onRecycle(0, 20);
    probe.onRecycle(0, 30);
    probe.onRecycle(1, 40);
    EXPECT_TRUE(rec.agg.empty()); // epoch 0 is still open
    // Epoch 1 saw no recycle, so it publishes nothing.
    probe.onRecycle(1, 2000);

    ASSERT_EQ(rec.agg.size(), 1u);
    const RxAggSample &agg = rec.agg[0];
    EXPECT_EQ(agg.epoch, 0u);
    EXPECT_EQ(agg.start, 0u);
    EXPECT_EQ(agg.end, 1000u);
    EXPECT_EQ(agg.total, 4u);
    EXPECT_EQ(agg.perQueue, (std::vector<std::uint64_t>{3, 1}));
}

// ---------------------------------------------------------- detectors --

TEST(MissRateSpikeDetector, CalibratesThenScoresSpikes)
{
    DetectorConfig cfg;
    cfg.window = 16;
    cfg.shortWindow = 2;
    MissRateSpike det(cfg);

    // Calibration span: steady 10 misses/epoch, all scores zero.
    std::uint64_t e = 0;
    for (; e < 16; ++e) {
        const Score *sc = det.onSample(llcSample(e, 10, 0));
        ASSERT_NE(sc, nullptr);
        EXPECT_EQ(sc->score, 0.0);
    }
    // Benign continuation stays quiet...
    const Score *quiet = det.onSample(llcSample(e++, 10, 0));
    EXPECT_LT(std::abs(quiet->score), 1.0);
    EXPECT_FALSE(quiet->alarm);
    // ...a probing burst alarms.
    det.onSample(llcSample(e++, 500, 0));
    const Score *spike = det.onSample(llcSample(e++, 500, 0));
    EXPECT_GT(spike->score, det.threshold());
    EXPECT_TRUE(spike->alarm);
    EXPECT_GE(det.alarmCount(), 1u);

    // Aggregate samples are not consumed.
    EXPECT_EQ(det.onSample(aggSample(e, {1, 1})), nullptr);
}

TEST(ProbeCadenceDetector, PeriodicConflictsAlarmAperiodicDoNot)
{
    DetectorConfig cfg;
    cfg.window = 64;
    cfg.minLag = 3;
    ProbeCadence det(cfg);

    // Period-8 conflict bursts: the probe loop's signature.
    const Score *last = nullptr;
    for (std::uint64_t e = 0; e < 128; ++e)
        last = det.onSample(llcSample(e, 5, e % 8 == 0 ? 12 : 0));
    ASSERT_NE(last, nullptr);
    EXPECT_GT(last->score, det.threshold());
    EXPECT_TRUE(last->alarm);
    EXPECT_EQ(det.bestLag(), 8u);

    // A pseudo-random aperiodic stream scores low.
    ProbeCadence benign(cfg);
    std::uint64_t x = 0x123456789abcdefull;
    const Score *b = nullptr;
    for (std::uint64_t e = 0; e < 128; ++e) {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        b = benign.onSample(llcSample(e, 5, x % 4));
    }
    EXPECT_FALSE(b->alarm);

    // A near-silent counter can never alarm, autocorrelated or not:
    // one conflict every 32 epochs keeps the window under minEvents.
    ProbeCadence silent(cfg);
    const Score *s = nullptr;
    for (std::uint64_t e = 0; e < 128; ++e)
        s = silent.onSample(llcSample(e, 5, e % 32 == 0 ? 1 : 0));
    EXPECT_FALSE(s->alarm);
}

TEST(ReuseEntropyDropDetector, FloodConcentrationAlarms)
{
    DetectorConfig cfg;
    cfg.window = 32;
    cfg.entropyShort = 8;
    ReuseEntropyDrop det(cfg);

    // Calibration: balanced recycles across 4 queues.
    std::uint64_t e = 0;
    for (; e < 32; ++e)
        det.onSample(aggSample(e, {5, 4, 6, 5}));
    // Balanced continuation: no alarm.
    const Score *sc = nullptr;
    for (unsigned i = 0; i < 8; ++i)
        sc = det.onSample(aggSample(e++, {4, 6, 5, 5}));
    EXPECT_FALSE(sc->alarm);
    EXPECT_LT(sc->score, 0.05);
    // Flood: one queue dominates, entropy collapses, alarm.
    for (unsigned i = 0; i < 8; ++i)
        sc = det.onSample(aggSample(e++, {80, 4, 6, 5}));
    EXPECT_TRUE(sc->alarm);
    EXPECT_GT(sc->score, det.threshold());
}

TEST(Detectors, FactoryAndNames)
{
    for (const std::string &name : detectorNames()) {
        EXPECT_TRUE(isDetectorName(name));
        EXPECT_EQ(makeDetector(name)->name(), name);
    }
    EXPECT_FALSE(isDetectorName("nope"));
    EXPECT_EXIT(makeDetector("nope"), ::testing::ExitedWithCode(1),
                "unknown detector");
}

TEST(Auc, SeparationExtremes)
{
    EXPECT_DOUBLE_EQ(aucScore({2, 3, 4}, {0, 1}), 1.0);
    EXPECT_DOUBLE_EQ(aucScore({0, 1}, {2, 3, 4}), 0.0);
    EXPECT_DOUBLE_EQ(aucScore({1, 1}, {1, 1}), 0.5);
    EXPECT_DOUBLE_EQ(aucScore({}, {1}), 0.5);
}

// --------------------------------------------------------------- gate --

TEST(Gate, ArmsImmediatelyDisarmsWithHysteresis)
{
    DetectorConfig dcfg;
    dcfg.window = 8;
    dcfg.shortWindow = 1;
    GateConfig gcfg;
    gcfg.disarmEpochs = 4;
    GateController gate(std::make_unique<MissRateSpike>(dcfg), gcfg);

    std::uint64_t e = 0;
    for (; e < 8; ++e)
        gate.onSample(llcSample(e, 10, 0));
    EXPECT_FALSE(gate.armed());

    gate.onSample(llcSample(e++, 900, 0));
    EXPECT_TRUE(gate.armed());
    EXPECT_EQ(gate.armTransitions(), 1u);

    // Three quiet epochs: still armed (hysteresis)...
    for (unsigned i = 0; i < 3; ++i)
        gate.onSample(llcSample(e++, 10, 0));
    EXPECT_TRUE(gate.armed());
    // ...the fourth disarms.
    gate.onSample(llcSample(e++, 10, 0));
    EXPECT_FALSE(gate.armed());
    EXPECT_GT(gate.armedEpochs(), 0u);

    // A source the detector does not read leaves the gate alone.
    gate.onSample(aggSample(e, {1, 1}));
    EXPECT_EQ(gate.detector().scores().size(), 13u);
}

// ---------------------------------------------------------------- rig --

namespace
{

/** The figD1 benign mix into @p tb until @p horizon. */
void
runBenignTraffic(testbed::Testbed &tb, Cycles horizon)
{
    net::TrafficPump pump(tb.eq(), tb.driver(), workload::benignMix(7),
                          1000);
    tb.eq().runUntil(horizon);
}

} // namespace

TEST(DetectionRig, FansOutEverySampleAndCountsEverySource)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.nicSpec = defense::nicSpecOf(4);
    constexpr Cycles kHorizon = 400 * kDefaultEpochCycles;

    // Reference: the same run with bare probes publishing into a
    // recorder (the simulation is deterministic).
    Recorder rec;
    {
        testbed::Testbed tb(cfg);
        LlcCounterProbe llc(rec, kDefaultEpochCycles);
        RxCounterProbe rx(rec, kDefaultEpochCycles,
                          tb.driver().numQueues());
        tb.hier().llc().attachTelemetry(&llc);
        tb.driver().attachTelemetry(&rx);
        runBenignTraffic(tb, kHorizon);
        tb.hier().llc().attachTelemetry(nullptr);
        tb.driver().attachTelemetry(nullptr);
    }
    ASSERT_FALSE(rec.llc.empty());
    ASSERT_FALSE(rec.agg.empty());

    testbed::Testbed tb(cfg);
    RigConfig rc;
    rc.detectors = {"miss-spike", "entropy-drop", "cadence"};
    rc.gateDetector = "cadence";
    const obs::StatSnapshot before = obs::snapshot();
    DetectionRig &rig = tb.attachDetection(rc);
    runBenignTraffic(tb, kHorizon);
    const obs::StatSnapshot spent = obs::snapshot() - before;

    // Both sources count.
    EXPECT_EQ(rig.published(), rec.llc.size() + rec.agg.size());
    EXPECT_EQ(spent.get(obs::Stat::DetectorEpochs), rig.published());

    // Each hosted detector (and the gate's) scores every sample of
    // its source, in publish order.
    const auto expectScoresEach = [](const Detector &det,
                                     const auto &samples) {
        ASSERT_EQ(det.scores().size(), samples.size()) << det.name();
        for (std::size_t i = 0; i < samples.size(); ++i) {
            EXPECT_EQ(det.scores()[i].epoch, samples[i].epoch);
            EXPECT_EQ(det.scores()[i].when, samples[i].end);
        }
    };
    expectScoresEach(rig.detector("miss-spike"), rec.llc);
    expectScoresEach(rig.detector("entropy-drop"), rec.agg);
    expectScoresEach(rig.detector("cadence"), rec.llc);
    ASSERT_NE(rig.gate(), nullptr);
    expectScoresEach(rig.gate()->detector(), rec.llc);
}

TEST(CounterProbes, SumsEqualTheEmittersStatistics)
{
    // The wiring from emitter to probe: summed over every published
    // epoch, the probes' counts equal the Llc's and the driver's own
    // statistics, so every miss, conflict and recycle reaches a hook
    // exactly once, whatever the cache policy and queue count.
    struct Case
    {
        const char *cache;
        std::size_t queues;
    };
    const Case cases[] = {{"cache.ddio", 1}, {"cache.adaptive", 1},
                          {"cache.no-ddio", 1}, {"cache.ddio", 4}};
    constexpr Cycles kHorizon = 400 * kDefaultEpochCycles;

    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.cache) + ", " +
                     defense::nicSpecOf(c.queues));
        testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
        cfg.cacheDefense = c.cache;
        cfg.nicSpec = defense::nicSpecOf(c.queues);
        testbed::Testbed tb(cfg);
        cache::Llc &llc = tb.hier().llc();
        nic::IgbDriver &driver = tb.driver();

        std::vector<std::size_t> all;
        for (std::size_t g = 0; g < tb.groups().groups.size(); ++g)
            all.push_back(g);
        attack::FootprintConfig fcfg;
        fcfg.probe.ways = cfg.llc.geom.ways;
        attack::FootprintScanner scanner(tb.hier(), tb.groups(), all,
                                         fcfg);

        Recorder rec;
        LlcCounterProbe llc_probe(rec, kDefaultEpochCycles);
        RxCounterProbe rx_probe(rec, kDefaultEpochCycles, c.queues);
        const cache::LlcStats llc0 = llc.stats();
        std::vector<std::uint64_t> frames0;
        for (std::size_t q = 0; q < c.queues; ++q)
            frames0.push_back(driver.queueStats(q).framesReceived);
        llc.attachTelemetry(&llc_probe);
        driver.attachTelemetry(&rx_probe);

        net::TrafficPump pump(tb.eq(), driver, workload::benignMix(7),
                              1000);
        tb.eq().runUntil(kHorizon / 2);
        scanner.scan(tb.eq(), kHorizon);

        // One event in a later epoch publishes the last one.
        const cache::LlcStats llc1 = llc.stats();
        llc_probe.ioInjection(2 * kHorizon);
        rx_probe.onRecycle(0, 2 * kHorizon);
        llc.attachTelemetry(nullptr);
        driver.attachTelemetry(nullptr);

        std::uint64_t misses = 0, conflicts = 0;
        for (const LlcSample &s : rec.llc) {
            misses += s.cpuMisses;
            conflicts += s.ioConflicts;
        }
        EXPECT_GT(misses, 0u);
        // Under DDIO the scan's fills displace injected lines; the
        // partitioned and no-DDIO caches keep CPU fills off them.
        if (std::string(c.cache) == "cache.ddio") {
            EXPECT_GT(conflicts, 0u);
        }
        EXPECT_EQ(misses, llc1.cpuReadMisses + llc1.cpuWriteMisses -
                              llc0.cpuReadMisses - llc0.cpuWriteMisses);
        EXPECT_EQ(conflicts, llc1.ioEvictedByCpu - llc0.ioEvictedByCpu);

        std::vector<std::uint64_t> recycles(c.queues, 0);
        for (const RxAggSample &s : rec.agg) {
            ASSERT_EQ(s.perQueue.size(), c.queues);
            for (std::size_t q = 0; q < c.queues; ++q)
                recycles[q] += s.perQueue[q];
        }
        for (std::size_t q = 0; q < c.queues; ++q) {
            EXPECT_GT(recycles[q], 0u) << "queue " << q;
            EXPECT_EQ(recycles[q], driver.queueStats(q).framesReceived -
                                       frames0[q])
                << "queue " << q;
        }
    }
}

// ---------------------------------------------------- gated ring spec --

TEST(GatedSpec, GrammarRoundTripsThroughRegistry)
{
    EXPECT_TRUE(defense::contains("ring.gated:cadence:partial.1000"));
    EXPECT_TRUE(defense::contains("ring.gated:miss-spike:full"));
    // Unknown detector or inner policy: well-formed but unknown.
    EXPECT_FALSE(defense::contains("ring.gated:nope:full"));
    EXPECT_FALSE(defense::contains("ring.gated:cadence:nope"));
    // A gate param without an inner policy, or a smuggled extra ':',
    // is malformed; a bare "ring.gated" is a listed policy name but
    // names nothing instantiable.
    EXPECT_FALSE(defense::contains("ring.gated:cadence"));
    EXPECT_FALSE(defense::contains("ring.gated:a:b:c"));
    EXPECT_FALSE(defense::description("ring.gated").empty());
    EXPECT_FALSE(defense::contains("ring.gated"));
    EXPECT_EXIT(defense::makeRingPolicy("ring.gated"),
                ::testing::ExitedWithCode(1), "ring.gated needs");

    auto policy = defense::makeRingPolicy(
        "ring.gated:cadence:partial.1000");
    EXPECT_EQ(policy->name(), "ring.gated:cadence:partial.1000");
    auto *gp = dynamic_cast<defense::GatedPolicy *>(policy.get());
    ASSERT_NE(gp, nullptr);
    EXPECT_EQ(gp->detectorName(), "cadence");
    EXPECT_EQ(gp->inner().name(), "ring.partial:1000");
    EXPECT_FALSE(gp->armed()); // unbound: permanently disarmed

    // Inner defaults become explicit in the canonical name.
    EXPECT_EQ(defense::canonicalSpec("ring.gated:cadence:partial"),
              "ring.gated:cadence:partial.1000");
    EXPECT_EQ(defense::canonicalSpec("ring.gated:entropy-drop:none"),
              "ring.gated:entropy-drop:none");

    // Cell names round-trip with a gated ring part.
    defense::Cell cell{"ring.gated:cadence:partial.1000",
                       "cache.ddio"};
    const defense::Cell back = defense::parseCell(cell.name());
    EXPECT_EQ(back.name(), cell.name());
}

TEST(GatedSpecDeath, UnknownPiecesFailLoudly)
{
    EXPECT_EXIT(defense::makeRingPolicy("ring.gated:nope:full"),
                ::testing::ExitedWithCode(1), "unknown");
    EXPECT_EXIT(defense::makeRingPolicy("ring.gated:cadence:nope"),
                ::testing::ExitedWithCode(1), "unknown ring policy");
}

// -------------------------------------------------------- end to end --

TEST(GatedTestbed, PaysOnlyWhileArmed)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    // Gate full randomization so any armed packet reallocates.
    cfg.ringDefense = "ring.gated:cadence:full";
    testbed::Testbed tb(cfg);
    ASSERT_NE(tb.detection(), nullptr);
    ASSERT_NE(tb.detection()->gate(), nullptr);

    nic::Frame frame;
    frame.bytes = 512;
    frame.protocol = nic::Protocol::Udp;

    Cycles t = 0;
    for (unsigned i = 0; i < 50; ++i)
        tb.driver().receive(frame, t += 2000);
    EXPECT_EQ(tb.driver().stats().buffersReallocated, 0u);

    // Operator override stands in for a detector alarm here; the
    // detector-driven path is covered by the figD2 grid and the
    // golden test.
    tb.detection()->gate()->forceArmed(true);
    for (unsigned i = 0; i < 50; ++i)
        tb.driver().receive(frame, t += 2000);
    EXPECT_EQ(tb.driver().stats().buffersReallocated, 50u);

    tb.detection()->gate()->forceArmed(false);
    for (unsigned i = 0; i < 50; ++i)
        tb.driver().receive(frame, t += 2000);
    EXPECT_EQ(tb.driver().stats().buffersReallocated, 50u);
}

TEST(GatedTestbed, QuarantineInnerKeepsLifecycleInvariants)
{
    // onInit/onTeardown always forward: the quarantine pool is
    // allocated and freed even if the gate never arms.
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.ringDefense = "ring.gated:miss-spike:quarantine.8";
    testbed::Testbed tb(cfg);
    nic::Frame frame;
    frame.bytes = 512;
    frame.protocol = nic::Protocol::Udp;
    Cycles t = 0;
    for (unsigned i = 0; i < 40; ++i)
        tb.driver().receive(frame, t += 2000);
    EXPECT_EQ(tb.driver().stats().pageSwaps, 0u); // never armed
    // Destruction must free the pool without tripping PhysMem.
}

TEST(Telemetry, DetachedEmittersDoNoTelemetryWork)
{
    // No rig: no probe attached anywhere.
    testbed::Testbed tb(testbed::TestbedConfig::reduced());
    EXPECT_EQ(tb.detection(), nullptr);
    EXPECT_EQ(tb.hier().llc().telemetry(), nullptr);
    EXPECT_EQ(tb.driver().telemetry(), nullptr);
}

TEST(Telemetry, RigDetachesOnDestruction)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    testbed::Testbed tb(cfg);
    {
        // Attach and drop a scoped rig manually.
        detect::RigConfig rc;
        rc.detectors = {"miss-spike"};
        detect::DetectionRig rig(tb.hier(), tb.driver(), rc);
        EXPECT_NE(tb.hier().llc().telemetry(), nullptr);
        EXPECT_NE(tb.driver().telemetry(), nullptr);
    }
    EXPECT_EQ(tb.hier().llc().telemetry(), nullptr);
    EXPECT_EQ(tb.driver().telemetry(), nullptr);
}
