/**
 * @file
 * Gated-defense campaign stress for the ThreadSanitizer CI job: a
 * grid of detector-gated defense cells (every detector, two queue
 * counts) each assembling a full telemetry + detection + gating
 * stack and running live traffic plus a probing attacker, executed
 * on 4 worker threads, must be race-free and merge bit-identically
 * to the single-threaded run. This is the detection layer's
 * determinism contract: rigs, probes, detectors, and gates are all
 * testbed-local, so nothing leaks across campaign workers.
 */

#include <gtest/gtest.h>

#include <memory>

#include "attack/footprint.hh"
#include "net/traffic.hh"
#include "runtime/sweep.hh"
#include "testbed/testbed.hh"
#include "workload/defense_eval.hh"

using namespace pktchase;

namespace
{

constexpr Cycles kHorizon = secondsToCycles(0.01);

/** One gated cell: benign mix, then a scanner from the midpoint. */
runtime::ScenarioResult
runGatedCell(const std::string &ring, std::size_t queues,
             std::uint64_t seed)
{
    testbed::TestbedConfig cfg = testbed::TestbedConfig::reduced();
    cfg.ringDefense = ring;
    cfg.nicSpec = defense::nicSpecOf(queues);
    testbed::Testbed tb(cfg);

    auto mix = std::make_unique<net::FlowMix>();
    for (std::uint32_t f = 0; f < 4; ++f) {
        mix->add(std::make_unique<net::ConstantStream>(
            768, 30000.0, 0, nic::Protocol::Udp, 11 + 7 * f));
    }
    mix->add(std::make_unique<net::PoissonBackground>(
        50000.0, Rng(seed), 0, 16));
    net::TrafficPump pump(tb.eq(), tb.driver(), std::move(mix), 1000);

    auto trojan = std::make_unique<net::FlowMix>();
    trojan->add(std::make_unique<net::ConstantStream>(
        256, 280000.0, 0, nic::Protocol::Udp, 4242));
    net::TrafficPump trojan_pump(tb.eq(), tb.driver(),
                                 std::move(trojan), kHorizon / 2);

    std::vector<std::size_t> all;
    for (std::size_t c = 0; c < tb.groups().groups.size(); ++c)
        all.push_back(c);
    attack::FootprintConfig fcfg;
    fcfg.probeRateHz = 16000.0;
    fcfg.probe.ways = cfg.llc.geom.ways;
    attack::FootprintScanner scanner(tb.hier(), tb.groups(), all,
                                     fcfg);
    tb.eq().runUntil(kHorizon / 2);
    scanner.scan(tb.eq(), kHorizon);

    const nic::IgbStats stats = tb.driver().stats();
    const detect::GateController *gate = tb.detection()->gate();
    runtime::ScenarioResult r;
    r.set("frames", static_cast<double>(stats.framesReceived));
    r.set("reallocs",
          static_cast<double>(stats.buffersReallocated));
    r.set("swaps", static_cast<double>(stats.pageSwaps));
    r.set("randomizations",
          static_cast<double>(stats.ringRandomizations));
    r.set("arm_transitions",
          static_cast<double>(gate->armTransitions()));
    r.set("armed_epochs",
          static_cast<double>(gate->armedEpochs()));
    r.set("alarms",
          static_cast<double>(gate->detector().alarmCount()));
    return r;
}

std::vector<runtime::Scenario>
gatedStressGrid()
{
    const char *rings[] = {
        "ring.gated:cadence:partial.200",
        "ring.gated:miss-spike:full",
        "ring.gated:entropy-drop:quarantine.8",
    };
    std::vector<runtime::Scenario> grid;
    for (std::size_t queues : {std::size_t(1), std::size_t(4)}) {
        for (const char *ring : rings) {
            const std::string name = "gstress/" + std::string(ring) +
                "/q" + std::to_string(queues);
            const std::string ring_spec = ring;
            grid.push_back({name,
                [ring_spec, queues](runtime::ScenarioContext &ctx) {
                    return runGatedCell(
                        ring_spec, queues,
                        runtime::splitSeed(ctx.campaignSeed,
                                           runtime::axisSalt(0xDE)));
                }});
        }
    }
    return grid;
}

} // namespace

TEST(GatedCampaign, FourThreadMergeBitIdenticalToSerial)
{
    runtime::SweepOptions parallel;
    parallel.threads = 4;
    parallel.seed = 17;
    parallel.verbose = false;
    const auto par = runtime::sweep(gatedStressGrid(), parallel);

    runtime::SweepOptions serial = parallel;
    serial.threads = 1;
    const auto ref = runtime::sweep(gatedStressGrid(), serial);

    ASSERT_EQ(par.size(), ref.size());
    ASSERT_EQ(par.size(), 6u);
    EXPECT_EQ(runtime::formatReport(par), runtime::formatReport(ref));

    // The stack actually exercised what it claims: the cadence- and
    // miss-spike-gated cells armed and paid their inner defense.
    bool any_armed = false;
    for (const auto &r : par) {
        EXPECT_GT(r.value("frames"), 0.0) << r.name;
        if (r.value("arm_transitions") > 0.0)
            any_armed = true;
    }
    EXPECT_TRUE(any_armed);
}
