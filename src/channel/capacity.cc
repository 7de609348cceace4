#include "capacity.hh"

#include <algorithm>
#include <cmath>

#include "attack/chasing.hh"
#include "channel/trojan.hh"
#include "net/traffic.hh"
#include "sim/lfsr.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace pktchase::channel
{

namespace
{

/**
 * Self-rescheduling background cache noise: an unrelated process
 * touching random lines of its own working set.
 */
class CacheNoise
{
  public:
    CacheNoise(testbed::Testbed &tb, double rate_hz, unsigned batch,
               std::uint64_t seed)
        : hier_(tb.hier()), rng_(seed), batch_(batch)
    {
        if (rate_hz <= 0.0)
            return;
        space_ = std::make_unique<mem::AddressSpace>(
            tb.phys(), mem::Owner::Victim);
        base_ = space_->mmap(noisePages_);
        interval_ = secondsToCycles(1.0 / rate_hz);
    }

    void
    start(EventQueue &eq, Cycles horizon)
    {
        if (!space_)
            return;
        step_ = [this, &eq, horizon] {
            Cycles t = eq.now();
            for (unsigned i = 0; i < batch_; ++i) {
                const Addr page = rng_.nextBounded(noisePages_);
                const Addr block = rng_.nextBounded(blocksPerPage);
                const Addr vaddr =
                    base_ + page * pageBytes + block * blockBytes;
                t += hier_.timedRead(space_->translate(vaddr), t);
            }
            const Cycles next = eq.now() + interval_;
            if (next <= horizon)
                eq.schedule(next, step_);
        };
        eq.schedule(eq.now() + interval_, step_);
    }

  private:
    static constexpr Addr noisePages_ = 512;
    cache::Hierarchy &hier_;
    Rng rng_;
    unsigned batch_;
    Cycles interval_ = 0;
    std::unique_ptr<mem::AddressSpace> space_;
    Addr base_ = 0;
    std::function<void()> step_;
};

/** The receive queue RSS steers the trojan's flow to. */
std::size_t
trojanQueue(testbed::Testbed &tb)
{
    return tb.driver().rss().queueFor(TrojanSource::kFlow);
}

/** Map an observed chasing size class onto a symbol. */
unsigned
symbolFromClass(Scheme scheme, unsigned cls)
{
    if (scheme == Scheme::Binary)
        return cls >= 3 ? 1u : 0u;
    if (cls >= 4)
        return 2u;
    if (cls == 3)
        return 1u;
    return 0u;
}

} // namespace

std::vector<unsigned>
testSymbols(Scheme scheme, std::size_t count, std::size_t offset)
{
    Lfsr lfsr(15, 0x5A5Au & 0x7FFF);
    const std::size_t total = offset + count;
    const std::size_t bits_needed =
        scheme == Scheme::Binary ? total : 2 * total;
    std::vector<unsigned> symbols =
        bitsToSymbols(scheme, lfsr.bits(bits_needed));
    symbols.resize(total);
    symbols.erase(symbols.begin(),
                  symbols.begin() + static_cast<std::ptrdiff_t>(offset));
    return symbols;
}

std::vector<std::size_t>
pickMonitoredBuffers(testbed::Testbed &tb, std::size_t n)
{
    const std::vector<std::size_t> ring =
        tb.ringComboSequence(trojanQueue(tb));
    if (n == 0 || n > ring.size())
        fatal("pickMonitoredBuffers: bad buffer count");

    // Single-mapped within the trojan's ring: the other rings see no
    // trojan traffic, so their buffers cannot blur the signal.
    std::vector<unsigned> count(tb.config().llc.geom.pageAlignedCombos(),
                                0);
    for (std::size_t c : ring)
        ++count[c];

    std::vector<std::size_t> chosen;
    std::vector<bool> used(ring.size(), false);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t target = k * ring.size() / n;
        // Search outward from the ideal position for a single-mapped,
        // unused slot.
        for (std::size_t d = 0; d < ring.size(); ++d) {
            const std::size_t fwd = (target + d) % ring.size();
            if (!used[fwd] && count[ring[fwd]] == 1) {
                chosen.push_back(ring[fwd]);
                used[fwd] = true;
                break;
            }
        }
    }
    if (chosen.size() != n)
        fatal("pickMonitoredBuffers: not enough single-mapped buffers");
    return chosen;
}

ChannelMeasurement
runCovertChannel(testbed::Testbed &tb, const ChannelRunConfig &cfg)
{
    const std::vector<unsigned> sent = testSymbols(
        cfg.scheme, cfg.nSymbols, cfg.symbolOffset);
    const std::size_t ring = tb.driver().ring(trojanQueue(tb)).size();
    const std::size_t pps = ring / cfg.monitoredBuffers;

    const std::vector<std::size_t> buffers =
        pickMonitoredBuffers(tb, cfg.monitoredBuffers);

    // Horizon: total wire time of the burst stream plus margin.
    double total_seconds = 0.0;
    for (unsigned s : sent) {
        nic::Frame f;
        f.bytes = frameBytes(cfg.scheme, s);
        const double rate = (cfg.sendRatePps <= 0.0)
            ? net::maxFrameRate(f.bytes) : cfg.sendRatePps;
        total_seconds += static_cast<double>(pps) / rate;
    }
    const Cycles start = tb.eq().now();
    const Cycles horizon = start +
        secondsToCycles(total_seconds * 1.3 + 0.01);

    auto trojan = std::make_unique<TrojanSource>(
        sent, cfg.scheme, pps, cfg.sendRatePps);
    net::TrafficPump pump(tb.eq(), tb.driver(), std::move(trojan),
                          start + 1000, cfg.arrivalJitterSigma,
                          cfg.seed);
    Cycles first_arrival = 0, last_arrival = 0;
    pump.setObserver([&](const nic::Frame &, Cycles when) {
        if (first_arrival == 0)
            first_arrival = when;
        last_arrival = when;
    });

    CacheNoise noise(tb, cfg.cacheNoiseHz, cfg.cacheNoiseBatch,
                     cfg.seed ^ 0x4E01u);
    SpyConfig spy_cfg;
    spy_cfg.probeRateHz = cfg.probeRateHz;
    spy_cfg.probe.ways = tb.config().llc.geom.ways;
    CovertSpy spy(tb.hier(), tb.groups(), buffers, cfg.scheme, spy_cfg);

    noise.start(tb.eq(), horizon);
    const ListenResult listened = spy.listen(tb.eq(), horizon);

    ChannelMeasurement m;
    m.sent = sent.size();
    m.received = listened.events.size();
    m.probeRounds = listened.rounds;
    const std::vector<unsigned> received = listened.symbols();
    m.editDistance = levenshtein(sent, received);
    m.errorRate = sent.empty() ? 0.0
        : static_cast<double>(m.editDistance) /
            static_cast<double>(sent.size());
    m.elapsed = (last_arrival > first_arrival)
        ? last_arrival - first_arrival : 0;
    if (m.elapsed > 0 && sent.size() > 1) {
        const double span = cyclesToSeconds(m.elapsed) *
            static_cast<double>(sent.size()) /
            static_cast<double>(sent.size() - 1);
        m.bandwidthBps = bitsPerSymbol(cfg.scheme) *
            static_cast<double>(sent.size()) / span;
    }
    return m;
}

ChannelMeasurement
runChasingChannel(testbed::Testbed &tb, const ChasingChannelConfig &cfg)
{
    const std::vector<unsigned> sent = testSymbols(
        cfg.scheme, cfg.nSymbols, cfg.symbolOffset);

    // Sequences the spy follows, one per receive queue: ground truth
    // with optional injected transpositions standing in for recovery
    // inaccuracy. One shared perturbation stream keeps the queues:1
    // draw sequence identical to the single-ring model's.
    std::vector<std::vector<std::size_t>> seqs =
        tb.queueComboSequences();
    if (cfg.sequenceErrorRate > 0.0) {
        Rng rng(cfg.seed ^ 0xABCDu);
        for (auto &seq : seqs) {
            for (std::size_t i = 0; i + 1 < seq.size(); ++i)
                if (rng.nextBool(cfg.sequenceErrorRate))
                    std::swap(seq[i], seq[i + 1]);
        }
    }

    const double symbol_rate =
        cfg.targetBandwidthBps / bitsPerSymbol(cfg.scheme);
    const Cycles start = tb.eq().now();
    const Cycles horizon = start + secondsToCycles(
        static_cast<double>(sent.size()) / symbol_rate * 1.2 + 0.005);

    // What the trojan intends to transmit, in order: the reference
    // stream for error accounting (delivery may reorder it).
    std::vector<unsigned> sent_classes;
    sent_classes.reserve(sent.size());
    for (unsigned s : sent) {
        nic::Frame f;
        f.bytes = frameBytes(cfg.scheme, s);
        sent_classes.push_back(symbolFromClass(cfg.scheme, f.blocks()));
    }

    // Adjacent frames swap when their independent network delays cross
    // the shrinking inter-frame gap: p = 0.5 erfc(gap / (2 sigma)).
    const double gap_cycles = coreFreqHz / symbol_rate;
    const double reorder_prob = (cfg.networkDelaySigma > 0.0)
        ? 0.5 * std::erfc(gap_cycles / (2.0 * cfg.networkDelaySigma))
        : 0.0;

    auto trojan = std::make_unique<TrojanSource>(
        sent, cfg.scheme, 1, symbol_rate);
    auto wire = std::make_unique<net::ReorderingSource>(
        std::move(trojan), reorder_prob, cfg.seed ^ 0x0DD5u);
    net::TrafficPump pump(tb.eq(), tb.driver(), std::move(wire),
                          start + 1000, cfg.arrivalJitterSigma,
                          cfg.seed);

    CacheNoise noise(tb, cfg.cacheNoiseHz, cfg.cacheNoiseBatch,
                     cfg.seed ^ 0x9999u);
    noise.start(tb.eq(), horizon);

    attack::ChaseConfig ch_cfg;
    ch_cfg.probe.ways = tb.config().llc.geom.ways;
    ch_cfg.probeInterval = std::max<Cycles>(
        500, secondsToCycles(1.0 / symbol_rate) / 4);
    // Sec. IV-b monitoring: three sets per buffer -- block 1 (the
    // prefetch row, firing for every packet: the clock) plus blocks 2
    // and 3. Covert frames never exceed copy-break, so the driver
    // never flips halves and the lower half suffices. The small
    // monitor is what lets the spy keep pace with line-rate-ish
    // senders.
    ch_cfg.firstBlock = 1;
    ch_cfg.sizeBlocks = 3;
    ch_cfg.lowerHalfOnly = true;
    // One chase cursor per receive queue: RSS pins the trojan's flow
    // to one ring, and the spy finds it by chasing all of them.
    attack::ChasingMonitor chaser(tb.hier(), tb.groups(),
                                  std::move(seqs), ch_cfg);
    const attack::ChaseResult chased = chaser.chase(tb.eq(), horizon);

    // Align the observed class stream against the sent stream with an
    // optimal edit alignment: substitutions are symbol errors on
    // synchronized pairs, deletions are packets the spy lost track of
    // (the paper's out-of-sync accounting).
    std::vector<unsigned> observed;
    observed.reserve(chased.packets.size());
    for (const attack::PacketObservation &obs : chased.packets)
        observed.push_back(symbolFromClass(cfg.scheme, obs.sizeClass));
    const EditOps ops = editOperations(sent_classes, observed);

    ChannelMeasurement m;
    m.sent = sent_classes.size();
    m.received = chased.packets.size();
    m.probeRounds = chased.probes;
    m.editMatches = ops.matches;
    m.editSubstitutions = ops.substitutions;
    m.editDeletions = ops.deletions;
    const std::size_t synced = ops.matches + ops.substitutions;
    m.errorRate = synced > 0
        ? static_cast<double>(ops.substitutions) /
            static_cast<double>(synced)
        : 1.0;
    m.outOfSyncRate = m.sent > 0
        ? static_cast<double>(ops.deletions) /
            static_cast<double>(m.sent)
        : 0.0;
    m.bandwidthBps = cfg.targetBandwidthBps;
    m.elapsed = tb.eq().now() - start;
    return m;
}

} // namespace pktchase::channel
