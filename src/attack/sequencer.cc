#include "sequencer.hh"

#include <algorithm>
#include <unordered_map>

#include "attack/footprint.hh"
#include "sim/logging.hh"

namespace pktchase::attack
{

Sequencer::Sequencer(cache::Hierarchy &hier, const ComboGroups &groups,
                     std::vector<std::size_t> combos,
                     const SequencerConfig &cfg)
    : hier_(hier), groups_(groups), combos_(std::move(combos)), cfg_(cfg)
{
    if (combos_.empty())
        panic("Sequencer needs at least one monitored combo");
}

std::vector<ProbeSample>
Sequencer::collectSamples(EventQueue &eq, PrimeProbeMonitor &monitor)
{
    std::vector<ProbeSample> samples;
    samples.reserve(cfg_.nSamples);
    const Cycles interval = secondsToCycles(1.0 / cfg_.probeRateHz);

    monitor.primeAll(eq.now());

    std::function<void()> round = [&] {
        ProbeSample s = monitor.probeAll(eq.now());
        const Cycles cost = s.end - s.start;
        samples.push_back(std::move(s));
        if (samples.size() < cfg_.nSamples)
            eq.schedule(eq.now() + std::max(interval, cost), round);
    };
    eq.schedule(eq.now(), round);

    // Step the queue until the sampler has nSamples rounds; it
    // stops rescheduling itself at the last one.
    while (samples.size() < cfg_.nSamples && !eq.empty())
        eq.step();
    return samples;
}

SequencerResult
Sequencer::run(EventQueue &eq)
{
    SequencerResult result;
    const Cycles start = eq.now();

    std::vector<EvictionSet> sets;
    sets.reserve(combos_.size());
    for (std::size_t c : combos_)
        sets.push_back(groups_.evictionSetFor(c, cfg_.probe.ways));
    PrimeProbeMonitor monitor(hier_, std::move(sets),
                              cfg_.probe.missThreshold);

    // GET_CLEAN_SAMPLES: resample after swapping always-miss sets for
    // the second block of the same page (same combo group, offset 64).
    std::vector<ProbeSample> samples;
    for (unsigned attempt = 0; ; ++attempt) {
        samples = collectSamples(eq, monitor);
        bool replaced = false;
        const std::vector<double> rates =
            FootprintScanner::activityRates(samples);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            if (rates[i] > cfg_.activityCutoff) {
                monitor.replaceSet(
                    i, groups_.evictionSetFor(combos_[i], cfg_.probe.ways)
                           .atBlock(1));
                ++result.replacedSets;
                replaced = true;
            }
        }
        result.samplesUsed += samples.size();
        if (!replaced || attempt >= cfg_.cleanRetries)
            break;
    }

    result.sequence = sequenceFromSamples(
        samples, combos_.size(), cfg_.weightCutoff);
    result.elapsed = eq.now() - start;
    return result;
}

std::vector<int>
Sequencer::sequenceFromSamples(const std::vector<ProbeSample> &samples,
                               std::size_t n_sets,
                               std::uint64_t weight_cutoff)
{
    return makeSequence(buildGraph(samples, n_sets), weight_cutoff);
}

Sequencer::Graph
Sequencer::buildGraph(const std::vector<ProbeSample> &samples,
                      std::size_t n_sets)
{
    // BUILD_GRAPH (Algorithm 1, lines 14-23): one node of history per
    // edge distinguishes multiple ring buffers sharing one cache set.
    //
    // Consecutive activations of the same set are merged regardless of
    // their spacing: they cover both wide peaks (one packet seen in
    // two adjacent rounds) and two buffers of the same set that are
    // adjacent in the *observable* stream (no monitored set fires in
    // between). The latter cannot be traversed anyway -- the no-self-
    // loop rule means state (x, x) never gets successors -- and the
    // paper's own analysis treats such buffers as merged.
    Graph graph;
    int prev = 0, curr = 0;
    for (const ProbeSample &s : samples) {
        for (std::size_t cand_i = 0; cand_i < n_sets; ++cand_i) {
            if (!s.active[cand_i])
                continue; // no activity
            const int cand = static_cast<int>(cand_i);
            if (cand == curr)
                continue; // merged repeat
            if (curr != prev) // no self-loop
                ++graph[{prev, curr}][cand];
            prev = curr;
            curr = cand;
        }
    }
    return graph;
}

std::vector<int>
Sequencer::makeSequence(Graph graph, std::uint64_t weight_cutoff)
{
    if (graph.empty())
        return {};

    // get_root: the heaviest (prev, curr) edge state.
    EdgeKey root = graph.begin()->first;
    std::uint64_t best_total = 0;
    for (const auto &[key, cands] : graph) {
        std::uint64_t total = 0;
        for (const auto &[cand, w] : cands)
            total += w;
        if (total > best_total) {
            best_total = total;
            root = key;
        }
    }

    // The root's best edge weight approximates one ring lap's count;
    // real edges are near it and noise edges far below. The traversal
    // follows heaviest edges, zeroing each as visited, and stops when
    // only sub-cutoff (noise or already-visited) edges remain -- which
    // happens exactly once the ring closes. (Terminating on a return
    // to the root state is unsound: with one node of history the same
    // (prev, curr) pair can legitimately recur mid-ring when a set
    // hosts several buffers.)
    std::uint64_t root_weight = 0;
    for (const auto &[cand, w] : graph[root])
        root_weight = std::max(root_weight, w);
    const std::uint64_t cutoff =
        std::max<std::uint64_t>(weight_cutoff, root_weight / 4);

    std::vector<int> sequence;
    EdgeKey state = root;
    const std::size_t safety_cap = 64 * graph.size() + 64;
    while (sequence.size() < safety_cap) {
        sequence.push_back(state.second);

        int next = -1;
        std::uint64_t weight = 0;
        auto it = graph.find(state);
        if (it != graph.end()) {
            for (const auto &[cand, w] : it->second) {
                if (w > weight) {
                    weight = w;
                    next = cand;
                }
            }
        }

        if (next < 0 || weight < cutoff) {
            // Dead end. A missed in-between activation can strand the
            // walk in a state the builder never populated (e.g., the
            // self-pair (x, x), which the no-self-loop rule skips).
            // Fall back to the history-free successor of the current
            // node: the heaviest unvisited edge out of any state that
            // ends in it. This robustification is not in the paper's
            // pseudocode but recovers gracefully from the same missed
            // samples the paper tolerates via its error budget.
            std::uint64_t best_w = 0;
            Graph::iterator best_it = graph.end();
            int best_cand = -1;
            for (auto git = graph.begin(); git != graph.end(); ++git) {
                if (git->first.second != state.second)
                    continue;
                for (const auto &[cand, w] : git->second) {
                    if (w > best_w) {
                        best_w = w;
                        best_it = git;
                        best_cand = cand;
                    }
                }
            }
            if (best_cand < 0 || best_w < cutoff)
                break;
            best_it->second[best_cand] = 0;
            state = {state.second, best_cand};
            continue;
        }

        it->second[next] = 0; // mark as visited
        state = {state.second, next};
    }

    // A walk that followed no edge found no ring: every edge was
    // below the cutoff, and the root state's node alone is noise.
    if (sequence.size() < 2)
        return {};

    // When the walk closes the ring it re-enters the root state and
    // pushes its node once more before running out of fresh edges;
    // drop that closure duplicate.
    if (sequence.front() == sequence.back())
        sequence.pop_back();

    return sequence;
}

FullRingRecovery::FullRingRecovery(cache::Hierarchy &hier,
                                   const ComboGroups &groups,
                                   std::vector<std::size_t> active,
                                   const SequencerConfig &cfg)
    : hier_(hier), groups_(groups), active_(std::move(active)),
      cfg_(cfg)
{
    if (active_.size() < 2)
        panic("FullRingRecovery needs at least two active combos");
}

std::vector<std::size_t>
FullRingRecovery::recover(EventQueue &eq)
{
    const std::size_t window =
        std::min<std::size_t>(32, active_.size());

    // Initial window: recover the ring order of the first 32 combos.
    std::vector<std::size_t> placed(active_.begin(),
                                    active_.begin() + window);
    Sequencer first(hier_, groups_, placed, cfg_);
    const SequencerResult base = first.run(eq);

    // master holds combo ids in recovered ring order.
    std::vector<std::size_t> master;
    master.reserve(active_.size() + 16);
    for (int node : base.sequence)
        master.push_back(placed[static_cast<std::size_t>(node)]);

    // Extension rounds: 31 placed combos (spread around the current
    // master so the candidate gets bracketed tightly) plus the
    // candidate, re-sampled; the candidate is inserted after its
    // observed predecessor. A base of fewer than two nodes cannot
    // bracket anything.
    for (std::size_t ci = window; master.size() >= 2 && ci < active_.size();
         ++ci) {
        const std::size_t cand = active_[ci];

        std::vector<std::size_t> monitor;
        const std::size_t picks =
            std::min<std::size_t>(31, master.size());
        for (std::size_t k = 0; k < picks; ++k) {
            const std::size_t idx = k * master.size() / picks;
            if (std::find(monitor.begin(), monitor.end(),
                          master[idx]) == monitor.end()) {
                monitor.push_back(master[idx]);
            }
        }
        monitor.push_back(cand);
        const auto cand_node = static_cast<int>(monitor.size() - 1);

        Sequencer ext(hier_, groups_, monitor, cfg_);
        const SequencerResult sub = ext.run(eq);

        // Locate the candidate and its predecessor in the
        // sub-sequence.
        for (std::size_t i = 0; i < sub.sequence.size(); ++i) {
            if (sub.sequence[i] != cand_node)
                continue;
            const std::size_t pi =
                (i + sub.sequence.size() - 1) % sub.sequence.size();
            const int pred_node = sub.sequence[pi];
            if (pred_node == cand_node)
                break;
            const std::size_t pred =
                monitor[static_cast<std::size_t>(pred_node)];
            // Insert after the predecessor's first master position.
            // (Between pred and the next monitored combo there may be
            // other master nodes the sub-run could not see; placing
            // the candidate right after pred is the tightest bound
            // the observation supports.)
            auto it = std::find(master.begin(), master.end(), pred);
            if (it != master.end())
                master.insert(it + 1, cand);
            break;
        }
    }

    // Unplaced: every active combo the result lacks, first-window
    // combos the base sequence missed included.
    unplaced_.clear();
    for (std::size_t c : active_)
        if (std::find(master.begin(), master.end(), c) == master.end())
            unplaced_.push_back(c);
    return master;
}

std::vector<int>
expectedMonitorSequence(const std::vector<std::size_t> &ring_sets,
                        const std::vector<std::size_t> &combo_gset)
{
    std::unordered_map<std::size_t, int> index_of;
    for (std::size_t i = 0; i < combo_gset.size(); ++i)
        index_of.emplace(combo_gset[i], static_cast<int>(i));

    std::vector<int> expected;
    for (std::size_t gset : ring_sets) {
        auto it = index_of.find(gset);
        if (it == index_of.end())
            continue;
        if (!expected.empty() && expected.back() == it->second)
            continue; // self-loops are unobservable
        expected.push_back(it->second);
    }
    // Cyclic wrap duplicate.
    if (expected.size() > 1 && expected.front() == expected.back())
        expected.pop_back();
    return expected;
}

} // namespace pktchase::attack
