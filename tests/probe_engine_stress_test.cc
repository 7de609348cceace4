/**
 * @file
 * Attacker campaign stress for the ThreadSanitizer CI job: the
 * attacker grids (multi-queue chasing channel + covert spy + a
 * fingerprint cell) executed on 4 worker threads must be race-free and
 * merge bit-identically to the single-threaded run. Each worker drives
 * full testbeds through the chase cursors and the sampling loop
 * concurrently, so their scheduling and the arrival-ordered merge run
 * under the campaign runtime's real concurrency.
 */

#include <gtest/gtest.h>

#include "runtime/sweep.hh"
#include "workload/attack_eval.hh"

using namespace pktchase;

namespace
{

/** A small but real attacker grid: chasing channel across queue
 *  counts, covert spy across probe rates, one fingerprint cell. */
std::vector<runtime::Scenario>
stressGrid()
{
    std::vector<runtime::Scenario> grid =
        workload::fig13ChannelGrid(150);
    for (runtime::Scenario &s : workload::fig11CovertGrid(60))
        grid.push_back(std::move(s));
    grid.push_back({"stress/fingerprint",
        [](runtime::ScenarioContext &ctx) {
            const defense::Cell cell{"ring.none", "cache.ddio",
                                     "nic.queues:4"};
            fingerprint::FingerprintConfig cfg = workload::fig20Config(
                runtime::splitSeed(ctx.campaignSeed,
                                   runtime::axisSalt(0x20)));
            cfg.trainVisits = 4;
            cfg.trials = 5;
            testbed::TestbedConfig tcfg;
            tcfg.ringDefense = cell.ring;
            tcfg.cacheDefense = cell.cache;
            tcfg.nicSpec = cell.nic;
            testbed::Testbed tb(tcfg);
            fingerprint::WebsiteDb db({"a", "b", "c"}, 42);
            fingerprint::FingerprintAttack atk(tb, db, cfg);
            const fingerprint::FingerprintResult res = atk.evaluate();
            runtime::ScenarioResult r;
            r.set("accuracy", res.accuracy);
            r.set("probe_rounds",
                  static_cast<double>(res.probeRounds));
            return r;
        }});
    return grid;
}

} // namespace

TEST(AttackerCampaign, FourThreadMergeBitIdenticalToSerial)
{
    runtime::SweepOptions parallel;
    parallel.threads = 4;
    parallel.seed = 11;
    parallel.verbose = false;
    const auto par = runtime::sweep(stressGrid(), parallel);

    runtime::SweepOptions serial = parallel;
    serial.threads = 1;
    const auto ref = runtime::sweep(stressGrid(), serial);

    ASSERT_EQ(par.size(), ref.size());
    ASSERT_EQ(par.size(), 13u);
    EXPECT_EQ(runtime::formatReport(par), runtime::formatReport(ref));
    for (std::size_t i = 0; i < par.size(); ++i) {
        EXPECT_EQ(par[i].name, ref[i].name);
        ASSERT_EQ(par[i].metrics.size(), ref[i].metrics.size())
            << par[i].name;
        for (std::size_t m = 0; m < par[i].metrics.size(); ++m) {
            EXPECT_EQ(par[i].metrics[m].first, ref[i].metrics[m].first);
            // Bit-exact merge: the attackers must not leak
            // nondeterminism into the campaign.
            EXPECT_EQ(par[i].metrics[m].second,
                      ref[i].metrics[m].second)
                << par[i].name << " / " << par[i].metrics[m].first;
        }
    }
}
