/**
 * @file
 * Layer probes of the paper-regeneration benchmark: direct, timed
 * calls into the layers that own no profile phase (testbed assembly,
 * the server request model, the CPU and DMA sides of the LLC, address
 * translation, the Zipf sampler and the event queue). Inputs come from
 * the workload's own grids and seed -- the testbed configurations its
 * cells build, ServerConfig defaults -- and the simulated LLC is warmed
 * before any cache operation is timed.
 */

#ifndef PKTCHASE_PERFBENCH_PROBES_HH
#define PKTCHASE_PERFBENCH_PROBES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Per-operation host times of the probed layers; 0 = layer unused. */
struct ProbeResults
{
    double testbedBuildMs = 0.0;   ///< Median Testbed ctor, per config.
    std::size_t testbedConfigs = 0;
    double serveUs = 0.0;          ///< ServerWorkload::serveOne.
    double serveDdioUs = 0.0;
    double serveAdaptiveUs = 0.0;
    double cpuReadNs = 0.0;        ///< Hierarchy::cpuRead, cache.ddio.
    double cpuReadAdaptiveNs = 0.0;///< Hierarchy::cpuRead, cache.adaptive.
    double cpuWriteNs = 0.0;       ///< Hierarchy::cpuWrite.
    double dmaWriteNs = 0.0;       ///< Hierarchy::dmaWrite of one frame.
    double translateNs = 0.0;      ///< AddressSpace::translate.
    double zipfNs = 0.0;           ///< Rng::nextZipf.
    double eventNs = 0.0;          ///< EventQueue schedule + dispatch.
};

/**
 * Time every layer probe for a workload made of @p grids at campaign
 * seed @p seed. @p server says whether the workload runs the server
 * request model at all; when it does not, serveUs stays 0.
 */
ProbeResults runLayerProbes(const std::vector<std::string> &grids,
                            std::uint64_t seed, bool server);

} // namespace perfbench

#endif // PKTCHASE_PERFBENCH_PROBES_HH
