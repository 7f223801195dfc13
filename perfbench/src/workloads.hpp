// The benchmark's workloads, their seeded inputs, and one operation of
// each: untraced through the public flow (runStreak / runEco), or
// traced as a layer-by-layer replay of the same calls.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/options.hpp"
#include "core/signal.hpp"
#include "eco/delta.hpp"
#include "obs/session.hpp"
#include "spans.hpp"

namespace perfbench {

struct WorkloadSpec {
    std::string name;
    /// synthSpec() indices; design i uses suites[i % suites.size()].
    std::vector<int> suites;
    streak::SolverKind solver = streak::SolverKind::PrimalDual;
    bool postOptimize = true;
    /// Route workloads: the design corpus, routed in rotation. eco-chain:
    /// the number of delta chains, one per base design, extended in
    /// rotation.
    int designs = 1;
    /// Operations per pass. Phases run whole passes of the same
    /// operations (eco-chain restarts its chains at every pass), so each
    /// operation is timed once per pass; the quality metrics come from
    /// the first pass.
    int passOps = 1;
    bool eco = false;
};

/// The workload called `name`, or nullptr.
[[nodiscard]] const WorkloadSpec* findWorkload(std::string_view name);
[[nodiscard]] std::string workloadNames();

/// Flow options of a workload (threads = 1, tracing off).
[[nodiscard]] streak::StreakOptions flowOptions(const WorkloadSpec& spec);

/// What set-up produces: serialised designs for the route workloads, the
/// checkpoints of the initial cold routes (one per chain) for eco-chain.
struct Inputs {
    std::vector<std::string> designTexts;
    std::vector<std::string> checkpoints;
};

/// Generate and serialise a workload's inputs (for eco-chain, also the
/// cold routes and their checkpoints). The corpus is fixed: design i's
/// SuiteSpec::seed derives from the workload name and i. Throws on any
/// failure: set-up is not allowed to fail.
[[nodiscard]] Inputs setUp(const WorkloadSpec& spec);

/// Result of one operation as the end-to-end summary sees it.
struct OpOutcome {
    double seconds = 0.0;      ///< wall time of the operation alone
    double kernel = 0.0;       ///< calibration kernel seconds around it
    std::string failure;       ///< empty when every check passed
    bool haveMetrics = false;  ///< the flow produced a result
    streak::Metrics metrics;
    int vioDst = 0;            ///< Vio(dst) after post
};

/// Work counts the traced pass reads per operation: from the bound
/// session's counters where the program keeps one, otherwise from the
/// layer function's own result.
struct LayerCounts {
    std::map<std::string, double> values;
    void add(const std::string& name, double v) { values[name] += v; }
    [[nodiscard]] double get(const std::string& name) const {
        const auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    }
};

/// Runs the operations of one phase in order. eco-chain operations chain
/// on each other; every pass restarts the chains from the set-up
/// checkpoints.
class Runner {
public:
    Runner(const WorkloadSpec& spec, std::uint64_t seed, const Inputs& inputs);

    /// Operation `index` through the public flow; the oracle runs after
    /// the timer stops.
    [[nodiscard]] OpOutcome run(long index);

    /// Operation `index` replayed layer by layer, with a span around each
    /// layer call and counters read through `session`. Afterwards (outside
    /// the spans) the oracle runs, plus the replay-fidelity check against
    /// runStreak (route workloads) or the cold re-route equivalence check
    /// (eco-chain). A fidelity miss is reported in `fidelity`.
    [[nodiscard]] OpOutcome runTraced(long index, SpanLog* log,
                                      streak::obs::Session* session,
                                      LayerCounts* counts,
                                      std::string* fidelity);

private:
    [[nodiscard]] OpOutcome routeOp(long index);
    [[nodiscard]] OpOutcome ecoOp(long index);
    [[nodiscard]] OpOutcome tracedRouteOp(long index, SpanLog* log,
                                          LayerCounts* counts,
                                          std::string* fidelity);
    [[nodiscard]] OpOutcome tracedEcoOp(long index, SpanLog* log,
                                        LayerCounts* counts,
                                        std::string* fidelity);

    /// The serialised design operation `index` routes.
    [[nodiscard]] const std::string& designText(long index) const;
    /// Slot of operation `index` in the rotation: --seed sets where the
    /// rotation starts, so it orders a pass without changing its work.
    [[nodiscard]] std::uint64_t slot(long index) const;
    /// eco-chain: the checkpoint operation `index` extends (restarting
    /// every chain at the first operation of a pass).
    [[nodiscard]] std::string& chainFor(long index);
    /// eco-chain: the delta batch operation `index` applies to `design`.
    [[nodiscard]] std::vector<streak::eco::Delta> deltasFor(
        long index, const streak::Design& design) const;

    const WorkloadSpec& spec_;
    std::uint64_t seed_;
    const Inputs& inputs_;
    streak::StreakOptions opts_;
    /// eco-chain: per chain, the checkpoint its next operation reads.
    std::vector<std::string> checkpoints_;
};

}  // namespace perfbench
