#include "sweep.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include <unistd.h>

#include "runtime/registry.hh"

namespace pktchase::runtime
{

namespace
{

/**
 * Throttled "cells done/total" line on stderr. Progress is cosmetic:
 * it is driven from Campaign's onResult hook (which runs on the thread
 * that called Campaign::run, so no locking) and never touches the
 * results, keeping the merged output bit-identical with progress on or
 * off.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::size_t total, bool rich)
        : total_(total), rich_(rich),
          start_(std::chrono::steady_clock::now())
    {
    }

    void
    onCell(const ScenarioResult &r)
    {
        ++done_;
        if (rich_ && !r.profile.empty())
            obs::mergeProfileInto(profile_, r.profile);
        maybePaint(done_ == total_);
    }

    ~ProgressMeter()
    {
        // Clear the line so the report starts at column 0.
        std::fprintf(stderr, "\r\033[K");
        std::fflush(stderr);
    }

  private:
    void
    maybePaint(bool force)
    {
        const auto now = std::chrono::steady_clock::now();
        // Repainting per cell would melt the terminal on 100-cell
        // grids of millisecond scenarios; 200 ms is smooth enough.
        if (!force && now - lastPaint_ < throttle_)
            return;
        lastPaint_ = now;
        const double elapsed =
            std::chrono::duration<double>(now - start_).count();
        std::string line = "\r  [" + std::to_string(done_) + "/" +
                           std::to_string(total_) + " cells, ";
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.1f s", elapsed);
        line += buf;
        // Rich mode: the hottest phase by accumulated self time and
        // its share -- the profile's headline number, live.
        if (rich_) {
            std::uint64_t selfTotal = 0;
            std::size_t top = profile_.size();
            std::uint64_t topSelf = 0;
            for (std::size_t id = 0; id < profile_.size(); ++id) {
                selfTotal += profile_[id].selfNs;
                if (profile_[id].selfNs > topSelf) {
                    topSelf = profile_[id].selfNs;
                    top = id;
                }
            }
            if (top < profile_.size() && selfTotal > 0) {
                std::snprintf(buf, sizeof(buf), " | top %s %.0f%%",
                              obs::phaseName(top),
                              100.0 * static_cast<double>(topSelf) /
                                  static_cast<double>(selfTotal));
                line += buf;
            }
        }
        line += "]\033[K";
        std::fputs(line.c_str(), stderr);
        std::fflush(stderr);
    }

    const std::size_t total_;
    const bool rich_;
    obs::ProfileDelta profile_; ///< Rich mode: finished cells' sum.
    std::size_t done_ = 0;
    const std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastPaint_{};
    static constexpr std::chrono::milliseconds throttle_{200};
};

} // namespace

std::vector<ScenarioResult>
sweep(const std::vector<Scenario> &grid, const SweepOptions &opt)
{
    CampaignConfig cfg;
    cfg.threads = opt.threads;
    cfg.seed = opt.seed;

    std::unique_ptr<ProgressMeter> meter;
    if (!opt.quiet && isatty(fileno(stderr))) {
        meter = std::make_unique<ProgressMeter>(
            opt.subset.empty() ? grid.size() : opt.subset.size(),
            opt.richProgress);
        cfg.onResult = [&meter](const ScenarioResult &r) {
            meter->onCell(r);
        };
    }

    Campaign campaign(cfg);
    std::vector<ScenarioResult> results =
        opt.subset.empty() ? campaign.run(grid)
                           : campaign.run(grid, opt.subset);
    meter.reset();

    if (opt.verbose) {
        const CampaignStats &s = campaign.stats();
        std::printf("  [campaign: %zu cells (%zu tasks) on %u threads, "
                    "seed %llu, %.2f s]\n\n",
                    s.scenariosRun, s.tasksRun, s.threadsUsed,
                    static_cast<unsigned long long>(cfg.seed),
                    s.wallSeconds);
    }
    return results;
}

std::vector<ScenarioResult>
sweep(const std::string &name, const SweepOptions &opt)
{
    return sweep(ScenarioRegistry::instance().make(name), opt);
}

} // namespace pktchase::runtime
