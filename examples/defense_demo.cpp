/**
 * @file
 * Defense demo (Secs. VI-VII): defenses are named by spec strings, so
 * trying a mitigation is a string, not a rebuild. The adaptive I/O
 * cache partitioning stops incoming packets from evicting CPU (spy)
 * lines, closing the channel while costing the server almost nothing.
 *
 * Build & run:  ./build/examples/defense_demo
 */

#include <cstdio>
#include <string>

#include "channel/capacity.hh"
#include "defense/registry.hh"
#include "workload/defense_eval.hh"

using namespace pktchase;

namespace
{

void
runChannel(const std::string &cache_spec)
{
    testbed::TestbedConfig cfg;
    cfg.cacheDefense = cache_spec;
    testbed::Testbed tb(cfg);

    channel::ChannelRunConfig run;
    run.scheme = channel::Scheme::Binary;
    run.nSymbols = 60;
    const channel::ChannelMeasurement m =
        channel::runCovertChannel(tb, run);

    const auto &llc = tb.hier().llc().stats();
    std::printf("  %-22s sent %3zu, received %3zu, error %5.1f%%, "
                "cpu lines evicted by I/O: %llu\n", cache_spec.c_str(),
                m.sent, m.received, m.errorRate * 100.0,
                static_cast<unsigned long long>(llc.cpuEvictedByIo));
}

} // namespace

int
main()
{
    std::printf("built-in defense policies\n");
    for (const char *domain : {"ring", "cache", "nic"}) {
        for (const std::string &name : defense::names(domain)) {
            std::printf("  %-20s %s\n", name.c_str(),
                        defense::description(name).c_str());
        }
    }

    std::printf("\ncovert channel vs. the cache defense\n");
    runChannel("cache.ddio");
    runChannel("cache.adaptive");

    std::printf("\nserver cost of the defense (closed-loop Nginx, "
                "20 MB LLC)\n");
    const auto base = workload::nginxThroughput(
        "cache.ddio", cache::Geometry::xeonE52660(), 3000);
    const auto def = workload::nginxThroughput(
        "cache.adaptive", cache::Geometry::xeonE52660(), 3000);
    std::printf("  cache.ddio:             %.1f kreq/s\n",
                base.kiloRequestsPerSec);
    std::printf("  cache.adaptive:         %.1f kreq/s (%.1f%% "
                "overhead)\n",
                def.kiloRequestsPerSec,
                100.0 * (1.0 - def.kiloRequestsPerSec /
                                   base.kiloRequestsPerSec));
    return 0;
}
