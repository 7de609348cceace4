#include "detect_eval.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "attack/footprint.hh"
#include "fingerprint/attack.hh"
#include "net/traffic.hh"
#include "runtime/registry.hh"
#include "testbed/testbed.hh"
#include "workload/attack_eval.hh"
#include "workload/defense_eval.hh"
#include "workload/server.hh"

namespace pktchase::workload
{

namespace
{

/** Simulated horizon of one figD1 detection run. */
constexpr Cycles kDetectHorizon = secondsToCycles(0.04);

/**
 * When the attacker switches on. The first half of the run is benign
 * on both twins (and covers the detectors' calibration spans); AUC
 * and TPR are computed over post-onset epochs, so they measure
 * detection of a live attack, not of the onset transient alone.
 */
constexpr Cycles kAttackOnset = kDetectHorizon / 2;

/** The trojan-style flood every figD1 attack run carries: one flow
 *  of small frames at a covert-channel sender's rate, so its queue
 *  dominates the cross-queue recycle distribution. */
constexpr Addr kTrojanBytes = 256;
constexpr double kTrojanPps = 280000.0;
constexpr std::uint32_t kTrojanFlow = 7777;

/** Reduced multi-queue testbed for the figD1 runs. */
testbed::TestbedConfig
detectionTestbedConfig(std::size_t queues)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.nicSpec = defense::nicSpecOf(queues);
    return cfg;
}

/**
 * Pack a detection trace into a task partial: the per-epoch score
 * trace as series (never serialized into reports), so the cell's fold
 * can recompute AUC/TPR/FPR from the exact doubles the monolithic
 * twin-run arithmetic would have seen.
 */
runtime::ScenarioResult
traceToPartial(const DetectionTrace &t)
{
    std::vector<double> epoch, score, alarm;
    epoch.reserve(t.scores.size());
    score.reserve(t.scores.size());
    alarm.reserve(t.scores.size());
    for (const detect::Score &s : t.scores) {
        epoch.push_back(static_cast<double>(s.epoch));
        score.push_back(s.score);
        alarm.push_back(s.alarm ? 1.0 : 0.0);
    }
    runtime::ScenarioResult r;
    r.setSeries("epoch", std::move(epoch));
    r.setSeries("score", std::move(score));
    r.setSeries("alarm", std::move(alarm));
    return r;
}

/** Score values of a packed trace from epoch @p from_epoch on. */
std::vector<double>
seriesScores(const runtime::ScenarioResult &p, double from_epoch)
{
    const std::vector<double> &epoch = p.seriesOf("epoch");
    const std::vector<double> &score = p.seriesOf("score");
    std::vector<double> out;
    for (std::size_t i = 0; i < epoch.size(); ++i)
        if (epoch[i] >= from_epoch)
            out.push_back(score[i]);
    return out;
}

/** Alarm fraction of a packed trace from epoch @p from_epoch on. */
double
seriesAlarmRate(const runtime::ScenarioResult &p, double from_epoch)
{
    const std::vector<double> &epoch = p.seriesOf("epoch");
    const std::vector<double> &alarm = p.seriesOf("alarm");
    std::uint64_t n = 0, alarms = 0;
    for (std::size_t i = 0; i < epoch.size(); ++i) {
        if (epoch[i] < from_epoch)
            continue;
        ++n;
        if (alarm[i] != 0.0)
            ++alarms;
    }
    return n > 0 ? static_cast<double>(alarms) /
        static_cast<double>(n) : 0.0;
}

/** "figD1/cadence/8khz" (+ "+nic.queues:N" off the default). */
std::string
figD1CellName(const std::string &detector, double rate_hz,
              std::size_t queues)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0fkhz", rate_hz / 1000.0);
    std::string name = "figD1/" + detector + "/" + buf;
    if (queues != nic::kDefaultQueues)
        name += "+" + defense::nicSpecOf(queues);
    return name;
}

/** Arm/cost metrics shared by every figD2 cell. */
void
fillGateMetrics(runtime::ScenarioResult &r, testbed::Testbed &tb)
{
    const nic::IgbStats stats = tb.driver().stats();
    r.set("buffers_reallocated",
          static_cast<double>(stats.buffersReallocated));
    r.set("ring_randomizations",
          static_cast<double>(stats.ringRandomizations));
    const detect::DetectionRig *rig = tb.detection();
    const detect::GateController *gate = rig ? rig->gate() : nullptr;
    r.set("arm_transitions", gate
        ? static_cast<double>(gate->armTransitions()) : 0.0);
    r.set("armed_epochs", gate
        ? static_cast<double>(gate->armedEpochs()) : 0.0);
}

} // namespace

std::unique_ptr<net::FlowMix>
benignMix(std::uint64_t seed)
{
    auto mix = std::make_unique<net::FlowMix>();
    for (std::uint32_t f = 0; f < 6; ++f) {
        mix->add(std::make_unique<net::ConstantStream>(
            768, 20000.0, 0, nic::Protocol::Udp, 101 + 17 * f));
    }
    mix->add(std::make_unique<net::PoissonBackground>(
        60000.0, Rng(seed), 0, 64));
    return mix;
}

std::vector<double>
figD1ProbeRates()
{
    return {4000.0, 8000.0, 16000.0};
}

std::vector<std::size_t>
figD1QueueCounts()
{
    return {nic::kDefaultQueues, 4};
}

DetectionTrace
runDetectionAttack(const std::string &detector, double probe_rate_hz,
                   std::size_t queues, std::uint64_t seed)
{
    testbed::Testbed tb(detectionTestbedConfig(queues));
    detect::RigConfig rig_cfg;
    rig_cfg.detectors = {detector};
    detect::DetectionRig &rig = tb.attachDetection(rig_cfg);

    net::TrafficPump pump(tb.eq(), tb.driver(), benignMix(seed), 1000);

    // The attacker switches on at the onset: the trojan flood starts
    // pumping and the footprint scan begins priming every combo.
    auto trojan = std::make_unique<net::FlowMix>();
    trojan->add(std::make_unique<net::ConstantStream>(
        kTrojanBytes, kTrojanPps, 0, nic::Protocol::Udp, kTrojanFlow));
    net::TrafficPump trojan_pump(tb.eq(), tb.driver(),
                                 std::move(trojan), kAttackOnset);

    std::vector<std::size_t> all;
    for (std::size_t c = 0; c < tb.groups().groups.size(); ++c)
        all.push_back(c);
    attack::FootprintConfig fcfg;
    fcfg.probeRateHz = probe_rate_hz;
    fcfg.probe.ways = tb.config().llc.geom.ways;
    attack::FootprintScanner scanner(tb.hier(), tb.groups(), all, fcfg);
    tb.eq().runUntil(kAttackOnset);
    scanner.scan(tb.eq(), kDetectHorizon);

    DetectionTrace t;
    t.scores = rig.detector(detector).scores();
    t.samples = rig.published();
    return t;
}

DetectionTrace
runDetectionBenign(const std::string &detector, std::size_t queues,
                   std::uint64_t seed)
{
    testbed::Testbed tb(detectionTestbedConfig(queues));
    detect::RigConfig rig_cfg;
    rig_cfg.detectors = {detector};
    detect::DetectionRig &rig = tb.attachDetection(rig_cfg);

    net::TrafficPump pump(tb.eq(), tb.driver(), benignMix(seed), 1000);
    tb.eq().runUntil(kDetectHorizon);

    DetectionTrace t;
    t.scores = rig.detector(detector).scores();
    t.samples = rig.published();
    return t;
}

std::vector<defense::Cell>
figD2Cells()
{
    return {
        {"ring.none", "cache.ddio"},           // free and vulnerable
        {"ring.partial:1000", "cache.ddio"},   // always-on defense
        {"ring.gated:cadence:partial.1000", "cache.ddio"},
    };
}

std::vector<runtime::Scenario>
figD1DetectionGrid()
{
    std::vector<runtime::Scenario> grid;
    for (const std::string &det : detect::detectorNames()) {
        for (double rate : figD1ProbeRates()) {
            for (std::size_t q : figD1QueueCounts()) {
                // The matched twins are two independent simulations
                // that only meet in the final ROC arithmetic -- a
                // natural K=2 decomposition. Task 0 runs the attack
                // twin, task 1 the benign twin; both draw the same
                // axis-pinned traffic seed the monolithic cell used,
                // so the folded metrics are the exact doubles the
                // twin-in-sequence run produced.
                runtime::Scenario sc;
                sc.name = figD1CellName(det, rate, q);
                sc.tasks = 2;
                sc.runTask = [det, rate, q](runtime::TaskContext &t) {
                    // All cells share one traffic stream, so
                    // detectors and rates are compared under
                    // identical load.
                    const std::uint64_t seed = runtime::splitSeed(
                        t.campaignSeed, runtime::axisSalt(0xD1));
                    return traceToPartial(t.task == 0
                        ? runDetectionAttack(det, rate, q, seed)
                        : runDetectionBenign(det, q, seed));
                };
                sc.fold = [](
                    const std::vector<runtime::ScenarioResult> &parts) {
                    const runtime::ScenarioResult &atk = parts[0];
                    const runtime::ScenarioResult &ben = parts[1];
                    // Positives: attack-run epochs after the onset
                    // (plus a short-window settle). Negatives: the
                    // benign twin past warmup.
                    const double onset_epoch = static_cast<double>(
                        kAttackOnset / detect::kDefaultEpochCycles + 8);
                    const double warmup =
                        static_cast<double>(kDetectWarmupEpochs);
                    const auto pos = seriesScores(atk, onset_epoch);
                    const auto neg = seriesScores(ben, warmup);
                    runtime::ScenarioResult r;
                    r.set("auc", detect::aucScore(pos, neg));
                    r.set("tpr", seriesAlarmRate(atk, onset_epoch));
                    r.set("fpr", seriesAlarmRate(ben, warmup));
                    r.set("attack_epochs",
                          static_cast<double>(pos.size()));
                    r.set("benign_epochs",
                          static_cast<double>(neg.size()));
                    return r;
                };
                grid.push_back(std::move(sc));
            }
        }
    }

    // Deployment-side false positives: the full-size server workload
    // with a detector attached and no attacker anywhere.
    for (const std::string &det : detect::detectorNames()) {
        grid.push_back({"figD1/" + det + "/server-fpr",
            [det](runtime::ScenarioContext &ctx) {
                testbed::Testbed tb(makeDefenseConfig(
                    "cache.ddio", cache::Geometry::xeonE52660()));
                detect::RigConfig rig_cfg;
                rig_cfg.detectors = {det};
                detect::DetectionRig &rig =
                    tb.attachDetection(rig_cfg);

                ServerConfig scfg;
                scfg.seed = runtime::splitSeed(
                    ctx.campaignSeed, runtime::axisSalt(0xD5));
                ServerWorkload server(tb, scfg);
                server.openLoop(100000.0, 6000);

                DetectionTrace t;
                t.scores = rig.detector(det).scores();
                const runtime::ScenarioResult trace = traceToPartial(t);
                const double warmup =
                    static_cast<double>(kDetectWarmupEpochs);
                runtime::ScenarioResult r;
                r.set("fpr", seriesAlarmRate(trace, warmup));
                const auto vals = seriesScores(trace, warmup);
                double peak = 0.0;
                for (double v : vals)
                    peak = std::max(peak, v);
                r.set("score_peak", peak);
                r.set("epochs", static_cast<double>(vals.size()));
                return r;
            }});
    }
    return grid;
}

std::vector<runtime::Scenario>
figD2GatingGrid(double rate, std::size_t requests)
{
    std::vector<runtime::Scenario> grid;

    for (const defense::Cell &cell : figD2Cells()) {
        grid.push_back({"figD2/benign/" + cell.name(),
            [cell, rate, requests](runtime::ScenarioContext &ctx) {
                testbed::Testbed tb(makeDefenseConfig(
                    cell.cache, cache::Geometry::xeonE52660(),
                    cell.ring, cell.nic));
                ServerConfig scfg;
                // Every cell sees the same arrival process.
                scfg.seed = runtime::splitSeed(
                    ctx.campaignSeed, runtime::axisSalt(0xD2));
                ServerWorkload server(tb, scfg);
                const LatencyResult lat =
                    server.openLoop(rate, requests);
                runtime::ScenarioResult r;
                setLatencyPercentiles(r, lat);
                r.set("kreq_per_sec",
                      lat.metrics.kiloRequestsPerSec);
                fillGateMetrics(r, tb);
                return r;
            }});
    }

    for (const defense::Cell &cell : figD2Cells()) {
        grid.push_back({"figD2/attack/" + cell.name(),
            [cell](runtime::ScenarioContext &ctx) {
                // The attack testbed, as in fig20: the spy needs its
                // eviction-set pool and the real timing-noise model.
                testbed::TestbedConfig tcfg;
                tcfg.ringDefense = cell.ring;
                tcfg.cacheDefense = cell.cache;
                tcfg.nicSpec = cell.nic;
                testbed::Testbed tb(tcfg);
                const fingerprint::WebsiteDb db = fig20Database();
                fingerprint::FingerprintAttack atk(
                    tb, db, fig20Config(runtime::splitSeed(
                        ctx.campaignSeed, runtime::axisSalt(0xD3))));
                const fingerprint::FingerprintResult res =
                    atk.evaluate();
                runtime::ScenarioResult r;
                r.set("accuracy", res.accuracy);
                r.set("correct", static_cast<double>(res.correct));
                r.set("trials", static_cast<double>(res.trials));
                r.set("probe_rounds",
                      static_cast<double>(res.probeRounds));
                fillGateMetrics(r, tb);
                return r;
            }});
    }
    return grid;
}

void
registerDetectionScenarios()
{
    auto &reg = runtime::ScenarioRegistry::instance();
    reg.add("figD1",
            "Detector ROC/AUC per attacker probe rate and queue "
            "count, plus benign-server false-positive rates",
            [] { return figD1DetectionGrid(); });
    reg.add("figD2",
            "Gated vs. always-on defense: benign latency cost and "
            "under-attack fingerprint accuracy",
            [] { return figD2GatingGrid(100000.0, 8000); });
}

} // namespace pktchase::workload
