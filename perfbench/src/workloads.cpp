#include "workloads.hpp"

#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/audit.hpp"
#include "core/distance.hpp"
#include "core/ilp_router.hpp"
#include "core/pd_solver.hpp"
#include "core/problem.hpp"
#include "core/solution.hpp"
#include "eco/checkpoint.hpp"
#include "eco/delta.hpp"
#include "eco/eco.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "io/design_io.hpp"
#include "obs/trace.hpp"
#include "post/clustering.hpp"
#include "post/refine.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using streak::Design;
using streak::Metrics;
using streak::RoutedDesign;
using streak::RoutingProblem;
using streak::StreakOptions;

const std::vector<WorkloadSpec>& workloads() {
    static const std::vector<WorkloadSpec> all = [] {
        std::vector<WorkloadSpec> w(4);
        w[0].name = "congested-post";
        w[0].suites = {6};
        w[0].designs = 6;
        w[0].passOps = 6;
        w[1].name = "suite-pd";
        w[1].suites = {1, 2, 3, 4, 5, 7};
        w[1].designs = 60;
        w[1].passOps = 60;
        w[2].name = "ilp-twopin";
        w[2].suites = {1, 2, 3, 4};
        w[2].solver = streak::SolverKind::Ilp;
        w[2].postOptimize = false;
        w[2].designs = 80;
        w[2].passOps = 80;
        w[3].name = "eco-chain";
        w[3].suites = {2};
        w[3].designs = 4;
        w[3].passOps = 48;
        w[3].eco = true;
        return w;
    }();
    return all;
}

/// Time a layer call inside a span named after it.
template <typename Fn>
auto inSpan(SpanLog* log, const char* name, long op, Fn&& fn) {
    const SpanLog::Scope span(*log, name, op);
    return fn();
}

Design parseDesign(const std::string& text) {
    std::istringstream is(text);
    return streak::io::readDesign(is);
}

/// The correctness oracle of a routed result: the deep routed-design
/// audit passes and nothing overflows.
std::string checkRouted(const RoutingProblem& prob, const RoutedDesign& routed,
                        const Metrics& metrics) {
    const streak::check::AuditResult audit =
        streak::check::auditRoutedDesign(prob, routed);
    if (!audit.ok()) return "routed-design audit failed: " + audit.summary();
    if (metrics.totalOverflow != 0) {
        return "overflow " + std::to_string(metrics.totalOverflow);
    }
    return {};
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// First differing Metrics field, or empty when identical (doubles
/// compared bit for bit).
std::string metricsDiff(const Metrics& a, const Metrics& b) {
    if (a.totalBits != b.totalBits) return "totalBits";
    if (a.routedBits != b.routedBits) return "routedBits";
    if (!sameBits(a.routability, b.routability)) return "routability";
    if (a.wirelength != b.wirelength) return "wirelength";
    if (!sameBits(a.avgRegularity, b.avgRegularity)) return "avgRegularity";
    if (a.totalOverflow != b.totalOverflow) return "totalOverflow";
    if (a.overflowedEdges != b.overflowedEdges) return "overflowedEdges";
    if (a.totalViaOverflow != b.totalViaOverflow) return "totalViaOverflow";
    return {};
}

/// The delta batch of step `step` of chain `chain`: one delta of each
/// kind, placed on the chain's current design. mt19937 output is fixed by
/// the standard, so the batch is the same on every platform.
std::vector<streak::eco::Delta> ecoDeltas(const Design& d, std::uint64_t chain,
                                          std::uint64_t step) {
    using streak::eco::Delta;
    using streak::eco::DeltaKind;
    std::mt19937 rng(deriveSeed(chain, "eco-delta", step));
    const auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
    };
    const auto clamp = [](int v, int hi) { return v < 0 ? 0 : (v > hi ? hi : v); };
    const int w = d.grid.width();
    const int h = d.grid.height();

    std::vector<Delta> out(4);
    Delta& move = out[0];
    move.kind = DeltaKind::MovePin;
    move.group = pick(0, d.numGroups() - 1);
    const streak::SignalGroup& g = d.groups[static_cast<size_t>(move.group)];
    move.bit = pick(0, g.width() - 1);
    const streak::Bit& bit = g.bits[static_cast<size_t>(move.bit)];
    move.pin = pick(0, bit.numPins() - 1);
    const streak::geom::Point old = bit.pins[static_cast<size_t>(move.pin)];
    move.to = {clamp(old.x + pick(-2, 2), w - 1), clamp(old.y + pick(-2, 2), h - 1)};

    const DeltaKind rectKinds[] = {DeltaKind::AddBlockage,
                                   DeltaKind::RemoveBlockage,
                                   DeltaKind::ResizeCapacity};
    for (int k = 0; k < 3; ++k) {
        Delta& r = out[static_cast<size_t>(k) + 1];
        r.kind = rectKinds[k];
        const int x = pick(0, w - 3);
        const int y = pick(0, h - 3);
        r.area = {{x, y}, {x + pick(0, 2), y + pick(0, 2)}};
        r.layer = pick(0, d.grid.numLayers() - 1);
        if (r.kind == DeltaKind::AddBlockage) r.capacity = 1;
        if (r.kind == DeltaKind::ResizeCapacity) {
            r.capacity = pick(1, d.grid.defaultCapacity());
        }
    }
    return out;
}

std::string writeCheckpointBytes(const streak::eco::Checkpoint& ckpt) {
    std::ostringstream os;
    streak::eco::writeCheckpoint(ckpt, os);
    return std::move(os).str();
}

/// Oracle of an incremental re-route: the closure's re-route audits
/// clean and the stitched design does not overflow.
std::string checkEco(const streak::eco::EcoResult& eco) {
    if (eco.sub) {
        std::string failure =
            checkRouted(eco.sub->problem, eco.sub->routed, eco.sub->metrics);
        if (!failure.empty()) return "closure re-route: " + failure;
    }
    if (eco.metrics.totalOverflow != 0) {
        return "overflow " + std::to_string(eco.metrics.totalOverflow);
    }
    return {};
}

}  // namespace

const WorkloadSpec* findWorkload(std::string_view name) {
    for (const WorkloadSpec& w : workloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

std::string workloadNames() {
    std::string out;
    for (const WorkloadSpec& w : workloads()) {
        out += (out.empty() ? "" : ", ") + w.name;
    }
    return out;
}

StreakOptions flowOptions(const WorkloadSpec& spec) {
    StreakOptions opts;
    opts.threads = 1;
    opts.solver = spec.solver;
    opts.postOptimize = spec.postOptimize;
    opts.ilpTimeLimitSeconds = 60.0;
    return opts;
}

Inputs setUp(const WorkloadSpec& spec) {
    Inputs in;
    for (int i = 0; i < spec.designs; ++i) {
        streak::gen::SuiteSpec suite = streak::gen::synthSpec(
            spec.suites[static_cast<size_t>(i) % spec.suites.size()]);
        suite.seed = deriveSeed(0, spec.name, static_cast<std::uint64_t>(i));
        const Design design = streak::gen::generate(suite);
        std::ostringstream os;
        streak::io::writeDesign(design, os);
        in.designTexts.push_back(std::move(os).str());
    }
    if (spec.eco) {
        const StreakOptions opts = flowOptions(spec);
        for (const std::string& text : in.designTexts) {
            const Design base = parseDesign(text);
            const streak::FlowResult cold = streak::runStreak(base, opts);
            if (!cold.ok()) {
                throw std::runtime_error("eco-chain set-up route failed: " +
                                         cold.error().describe());
            }
            in.checkpoints.push_back(writeCheckpointBytes(
                streak::eco::makeCheckpoint(base, opts, cold.value())));
        }
    }
    return in;
}

Runner::Runner(const WorkloadSpec& spec, std::uint64_t seed,
               const Inputs& inputs)
    : spec_(spec),
      seed_(seed),
      inputs_(inputs),
      opts_(flowOptions(spec)),
      checkpoints_(inputs.checkpoints) {}

std::uint64_t Runner::slot(long index) const {
    return (static_cast<std::uint64_t>(index) + seed_) %
           static_cast<std::uint64_t>(spec_.designs);
}

std::string& Runner::chainFor(long index) {
    if (index % spec_.passOps == 0) checkpoints_ = inputs_.checkpoints;
    return checkpoints_[slot(index)];
}

std::vector<streak::eco::Delta> Runner::deltasFor(long index,
                                                  const Design& design) const {
    // Step of the chain within the pass: operations before this one in
    // the pass that extended the same chain.
    const long step = (index % spec_.passOps) / spec_.designs;
    return ecoDeltas(design, slot(index), static_cast<std::uint64_t>(step));
}

const std::string& Runner::designText(long index) const {
    return inputs_.designTexts[slot(index)];
}

OpOutcome Runner::run(long index) {
    try {
        return spec_.eco ? ecoOp(index) : routeOp(index);
    } catch (const std::exception& e) {
        OpOutcome out;
        out.failure = std::string("exception: ") + e.what();
        return out;
    }
}

OpOutcome Runner::runTraced(long index, SpanLog* log,
                            streak::obs::Session* session,
                            LayerCounts* counts, std::string* fidelity) {
    // Hot-path spans the program records into the bound session are not
    // part of this benchmark's trace; drop them per operation.
    session->tracer().reset();
    const streak::obs::Snapshot before = session->snapshotMetrics();
    OpOutcome out;
    try {
        out = spec_.eco ? tracedEcoOp(index, log, counts, fidelity)
                        : tracedRouteOp(index, log, counts, fidelity);
    } catch (const std::exception& e) {
        log->endOpen();
        out.failure = std::string("exception: ") + e.what();
    }
    const streak::obs::Snapshot delta =
        session->snapshotMetrics().minus(before);
    static const std::pair<const char*, const char*> kCounters[] = {
        {"solve/pd.iterations", "core.pd.iterations"},
        {"ilp/router.components", "ilp.components"},
        {"ilp/bnb.nodes_explored", "ilp.bnb_nodes"},
        {"ilp/lp.solves", "ilp.lp_solves"},
        {"ilp/lp.pivots", "ilp.lp_pivots"},
        {"ilp/lp.warm_starts", "ilp.lp_warm_starts"},
        {"ilp/lp.warm_fallbacks", "ilp.lp_warm_fallbacks"},
        {"post/refine.pins_considered", "post.refine.pins_considered"},
        {"post/refine.pins_fixed", "post.refine.pins_fixed"},
        {"post/refine.added_wirelength", "post.refine.added_wl"},
    };
    for (const auto& [counter, metric] : kCounters) {
        const auto it = delta.counters.find(counter);
        counts->add(metric, it == delta.counters.end()
                                ? 0.0
                                : static_cast<double>(it->second));
    }
    return out;
}

OpOutcome Runner::routeOp(long index) {
    const std::string& text = designText(index);
    OpOutcome out;
    const streak::obs::Stopwatch timer;
    const Design design = parseDesign(text);
    const streak::FlowResult flow = streak::runStreak(design, opts_);
    out.seconds = timer.seconds();

    if (!flow.ok()) {
        out.failure = "flow failed: " + flow.error().describe();
        return out;
    }
    const streak::StreakResult& r = flow.value();
    out.haveMetrics = true;
    out.metrics = r.metrics;
    out.vioDst = r.distanceViolationsAfter;
    out.failure = checkRouted(r.problem, r.routed, r.metrics);
    if (out.failure.empty() && r.hitTimeLimit) {
        out.failure = "ILP hit its time limit";
    }
    return out;
}

OpOutcome Runner::tracedRouteOp(long index, SpanLog* log, LayerCounts* counts,
                                std::string* fidelity) {
    const std::string& text = designText(index);
    OpOutcome out;
    const int opSpan = log->begin("op", index);

    // The call order of src/flow/streak.cpp: build -> PD (-> ILP) ->
    // materialize -> distance -> cluster -> refine -> evaluate.
    const Design design =
        inSpan(log, "io/readDesign", index, [&] { return parseDesign(text); });
    const RoutingProblem problem = inSpan(log, "core/buildProblem", index, [&] {
        return streak::buildProblem(design, opts_);
    });
    streak::PdResult pd = inSpan(log, "core/solvePrimalDual", index, [&] {
        return streak::solvePrimalDual(problem);
    });
    streak::RoutingSolution solution = std::move(pd.solution);
    bool hitTimeLimit = false;
    if (opts_.solver == streak::SolverKind::Ilp) {
        streak::IlpRouteResult ilp =
            inSpan(log, "ilp/solveIlpRouting", index, [&] {
                return streak::solveIlpRouting(
                    problem, opts_.ilpTimeLimitSeconds, &solution);
            });
        solution = std::move(ilp.solution);
        hitTimeLimit = ilp.hitTimeLimit;
    }
    RoutedDesign routed = inSpan(log, "core/materialize", index, [&] {
        return streak::materialize(problem, solution);
    });
    const int vioBefore = inSpan(log, "core/analyzeDistances", index, [&] {
        return streak::countViolatingGroups(streak::analyzeDistances(
            problem, routed, opts_.distanceThresholdFraction));
    });
    int vioAfter = vioBefore;
    if (opts_.postOptimize) {
        const streak::post::ClusteringResult cluster =
            inSpan(log, "post/clusterAndRoute", index, [&] {
                return streak::post::clusterAndRoute(problem, &routed);
            });
        counts->add("post.cluster.bits_attempted", cluster.bitsAttempted);
        counts->add("post.cluster.bits_routed", cluster.bitsRouted);
        counts->add("post.cluster.clusters_formed", cluster.clustersFormed);
        vioAfter = inSpan(log, "post/refineDistances", index, [&] {
                       return streak::post::refineDistances(problem, &routed);
                   }).violatingGroupsAfter;
    }
    const Metrics metrics = inSpan(log, "core/evaluate", index, [&] {
        return streak::evaluate(problem, routed);
    });
    log->end(opSpan);
    out.seconds = log->spans()[static_cast<size_t>(opSpan)].seconds();

    long candidates = 0;
    for (const auto& set : problem.candidates) {
        candidates += static_cast<long>(set.size());
    }
    counts->add("core.build.objects", problem.numObjects());
    counts->add("core.build.candidates", static_cast<double>(candidates));
    counts->add("core.build.pair_blocks",
                static_cast<double>(problem.pairBlocks.size()));

    out.haveMetrics = true;
    out.metrics = metrics;
    out.vioDst = vioAfter;
    out.failure = checkRouted(problem, routed, metrics);
    if (out.failure.empty() && hitTimeLimit) {
        out.failure = "ILP hit its time limit";
    }

    // Replay fidelity: the public flow on the same design must agree.
    const streak::FlowResult flow = streak::runStreak(design, opts_);
    if (!flow.ok()) {
        *fidelity = "runStreak failed: " + flow.error().describe();
        return out;
    }
    const streak::StreakResult& ref = flow.value();
    std::string diff = metricsDiff(metrics, ref.metrics);
    if (diff.empty() && vioBefore != ref.distanceViolationsBefore) {
        diff = "Vio(dst) before post";
    }
    if (diff.empty() && vioAfter != ref.distanceViolationsAfter) {
        diff = "Vio(dst) after post";
    }
    if (!diff.empty()) {
        *fidelity = "operation " + std::to_string(index) +
                    ": replay differs from runStreak in " + diff;
    }
    return out;
}

OpOutcome Runner::ecoOp(long index) {
    OpOutcome out;
    std::string& chain = chainFor(index);
    const streak::obs::Stopwatch timer;
    const streak::eco::Checkpoint ckpt =
        streak::eco::readCheckpointBuffer(chain);
    const streak::eco::EcoResult eco =
        streak::eco::runEco(ckpt, deltasFor(index, *ckpt.design), 1);
    std::string next =
        writeCheckpointBytes(streak::eco::makeCheckpoint(eco, ckpt.opts));
    out.seconds = timer.seconds();

    chain = std::move(next);
    out.haveMetrics = true;
    out.metrics = eco.metrics;
    out.vioDst = eco.distanceViolationsAfter;
    out.failure = checkEco(eco);
    return out;
}

OpOutcome Runner::tracedEcoOp(long index, SpanLog* log, LayerCounts* counts,
                              std::string* fidelity) {
    OpOutcome out;
    std::string& chain = chainFor(index);
    const int opSpan = log->begin("op", index);
    const streak::eco::Checkpoint ckpt =
        inSpan(log, "eco/readCheckpointBuffer", index, [&] {
            return streak::eco::readCheckpointBuffer(chain);
        });
    const std::vector<streak::eco::Delta> deltas =
        deltasFor(index, *ckpt.design);
    const streak::eco::EcoResult eco = inSpan(log, "eco/runEco", index, [&] {
        return streak::eco::runEco(ckpt, deltas, 1);
    });
    const streak::eco::Checkpoint nextCkpt =
        inSpan(log, "eco/makeCheckpoint", index, [&] {
            return streak::eco::makeCheckpoint(eco, ckpt.opts);
        });
    std::string next = inSpan(log, "eco/writeCheckpoint", index, [&] {
        return writeCheckpointBytes(nextCkpt);
    });
    log->end(opSpan);
    out.seconds = log->spans()[static_cast<size_t>(opSpan)].seconds();

    counts->add("eco.ckpt_bytes", static_cast<double>(next.size()));
    counts->add("eco.ckpt_writes", 1);
    counts->add("eco.resolved_groups",
                static_cast<double>(eco.resolvedGroups.size()));
    counts->add("eco.total_groups", eco.totalGroups);
    if (eco.sub) {
        counts->add("eco.sub.build_s", eco.sub->buildSeconds());
        counts->add("eco.sub.solve_s", eco.sub->solveSeconds());
        counts->add("eco.sub.distance_s", eco.sub->distanceSeconds());
        counts->add("eco.sub.post_s", eco.sub->postSeconds());
    }
    chain = std::move(next);
    out.haveMetrics = true;
    out.metrics = eco.metrics;
    out.vioDst = eco.distanceViolationsAfter;
    out.failure = checkEco(eco);

    // Incremental == cold: re-route the mutated design from scratch.
    StreakOptions coldOpts = streak::eco::semanticOptions(ckpt.opts);
    coldOpts.threads = 1;
    const streak::FlowResult cold = streak::runStreak(*eco.design, coldOpts);
    std::string diff;
    if (!cold.ok()) {
        *fidelity = "cold re-route failed: " + cold.error().describe();
    } else if (!streak::eco::equivalent(eco, cold.value(), &diff)) {
        *fidelity = "operation " + std::to_string(index) +
                    ": incremental differs from cold re-route: " + diff;
    }
    return out;
}

}  // namespace perfbench
