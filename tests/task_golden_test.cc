/**
 * @file
 * Golden pins for the task-decomposed attacker grids (ctest label
 * `golden`): the full fig20 and fig13 merged reports, byte for byte,
 * at campaign seed 1 -- through the serial task loop (threads=1), the
 * parallel scheduler (threads=4), and the runScenarioMonolithic
 * reference, which the decomposition contract requires to agree
 * bit-identically.
 *
 * The goldens were captured when the grids moved onto the sub-cell
 * task contract (per-trial seeds replaced the single shared trial
 * stream, so the pre-split reports do not apply). The qualitative
 * findings they pin are the paper's: fig20 undefended queues:1
 * accuracy 100% with adaptive partitioning pushed to chance, and
 * fig13 out-of-sync rates climbing with target bandwidth and queue
 * count.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/campaign.hh"
#include "runtime/scenario.hh"
#include "workload/attack_eval.hh"

namespace
{

using namespace pktchase;

constexpr std::uint64_t kSeed = 1;

const char *kFig20Golden =
    "[0] fig20/ring.none+cache.ddio accuracy=0x1p+0 correct=0x1.4p+4 "
    "trials=0x1.4p+4 probe_rounds=0x1.124p+14\n"
    "[1] fig20/ring.none+cache.no-ddio accuracy=0x1p+0 "
    "correct=0x1.4p+4 trials=0x1.4p+4 probe_rounds=0x1.124p+14\n"
    "[2] fig20/ring.partial:1000+cache.ddio accuracy=0x1p+0 "
    "correct=0x1.4p+4 trials=0x1.4p+4 probe_rounds=0x1.124p+14\n"
    "[3] fig20/ring.full+cache.ddio accuracy=0x1p+0 "
    "correct=0x1.4p+4 trials=0x1.4p+4 probe_rounds=0x1.124p+14\n"
    "[4] fig20/ring.none+cache.adaptive "
    "accuracy=0x1.999999999999ap-3 correct=0x1p+2 trials=0x1.4p+4 "
    "probe_rounds=0x1.42dp+13\n"
    "[5] fig20/ring.none+cache.ddio+nic.queues:4 "
    "accuracy=0x1.ccccccccccccdp-1 correct=0x1.2p+4 trials=0x1.4p+4 "
    "probe_rounds=0x1.1298p+16\n"
    "[6] fig20/ring.none+cache.no-ddio+nic.queues:4 "
    "accuracy=0x1.ccccccccccccdp-1 correct=0x1.2p+4 trials=0x1.4p+4 "
    "probe_rounds=0x1.1298p+16\n"
    "[7] fig20/ring.partial:1000+cache.ddio+nic.queues:4 "
    "accuracy=0x1.ccccccccccccdp-1 correct=0x1.2p+4 trials=0x1.4p+4 "
    "probe_rounds=0x1.1298p+16\n"
    "[8] fig20/ring.full+cache.ddio+nic.queues:4 "
    "accuracy=0x1.ccccccccccccdp-1 correct=0x1.2p+4 trials=0x1.4p+4 "
    "probe_rounds=0x1.1298p+16\n"
    "[9] fig20/ring.none+cache.adaptive+nic.queues:4 "
    "accuracy=0x1.999999999999ap-3 correct=0x1p+2 trials=0x1.4p+4 "
    "probe_rounds=0x1.42dp+15\n";

const char *kFig13Golden =
    "[0] fig13/80kbps error_rate=0x0p+0 out_of_sync_rate=0x0p+0 "
    "received=0x1.2cp+9 probe_rounds=0x1.b08p+12\n"
    "[1] fig13/320kbps error_rate=0x0p+0 "
    "out_of_sync_rate=0x1.47ae147ae147bp-8 received=0x1.2a8p+9 "
    "probe_rounds=0x1.1efcp+14\n"
    "[2] fig13/640kbps error_rate=0x0p+0 "
    "out_of_sync_rate=0x1.8a3d70a3d70a4p-2 received=0x1.71p+8 "
    "probe_rounds=0x1.a0bp+14\n"
    "[3] fig13/80kbps+nic.queues:4 error_rate=0x0p+0 "
    "out_of_sync_rate=0x0p+0 received=0x1.2cp+9 "
    "probe_rounds=0x1.b08p+14\n"
    "[4] fig13/320kbps+nic.queues:4 error_rate=0x0p+0 "
    "out_of_sync_rate=0x1.da740da740da7p-1 received=0x1.6p+5 "
    "probe_rounds=0x1.293ap+16\n"
    "[5] fig13/640kbps+nic.queues:4 error_rate=0x0p+0 "
    "out_of_sync_rate=0x1.d3a06d3a06d3ap-1 received=0x1.ap+5 "
    "probe_rounds=0x1.ade5p+16\n";

std::string
runGrid(std::vector<runtime::Scenario> grid, unsigned threads)
{
    runtime::CampaignConfig cfg;
    cfg.threads = threads;
    cfg.seed = kSeed;
    runtime::Campaign campaign(cfg);
    return runtime::formatReport(campaign.run(grid));
}

TEST(TaskGolden, Fig20ReportSerialMatchesGolden)
{
    EXPECT_EQ(runGrid(workload::fig20FingerprintGrid(), 1),
              kFig20Golden);
}

TEST(TaskGolden, Fig20ReportFourThreadsMatchesGolden)
{
    EXPECT_EQ(runGrid(workload::fig20FingerprintGrid(), 4),
              kFig20Golden);
}

TEST(TaskGolden, Fig13ReportSerialMatchesGolden)
{
    EXPECT_EQ(runGrid(workload::fig13ChannelGrid(600), 1),
              kFig13Golden);
}

TEST(TaskGolden, Fig13ReportFourThreadsMatchesGolden)
{
    EXPECT_EQ(runGrid(workload::fig13ChannelGrid(600), 4),
              kFig13Golden);
}

TEST(TaskGolden, MonolithicReferenceMatchesCampaignCells)
{
    // Spot-check the contract's third leg on the heaviest cell of
    // each grid: runScenarioMonolithic (serial task loop + fold on
    // the calling thread, no campaign involved) reproduces the same
    // folded metrics the golden reports pin.
    const auto fig20 = workload::fig20FingerprintGrid();
    const runtime::ScenarioResult f20 =
        runtime::runScenarioMonolithic(fig20[9], 9, kSeed);
    EXPECT_EQ(f20.value("accuracy"), 0x1.999999999999ap-3);
    EXPECT_EQ(f20.value("correct"), 4.0);
    EXPECT_EQ(f20.value("trials"), 20.0);

    const auto fig13 = workload::fig13ChannelGrid(600);
    const runtime::ScenarioResult f13 =
        runtime::runScenarioMonolithic(fig13[5], 5, kSeed);
    EXPECT_EQ(f13.value("error_rate"), 0.0);
    EXPECT_EQ(f13.value("out_of_sync_rate"), 0x1.d3a06d3a06d3ap-1);
    EXPECT_EQ(f13.value("received"), 0x1.ap+5);
}

} // namespace
