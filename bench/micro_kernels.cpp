// Kernel micro-benchmarks (google-benchmark): the hot inner loops of the
// flow, plus ablations of the two knobs our backbone enumerator adds on
// top of the paper (bend penalty lambda, candidate count K).
//
// Two modes:
//
//   micro_kernels [gbench flags]   google-benchmark timings of the
//                                  kernels, including before/after pairs
//                                  for the maze search (the full-grid
//                                  Dijkstra test oracle vs A* + bounding
//                                  window) and the simplex (the
//                                  explicit-bound-row test oracle vs the
//                                  bounded-variable engine).
//
//   micro_kernels --report         counter producer: runs the A* +
//                                  window maze search and the ILP flow
//                                  over the shrunk synth1-7 suites and
//                                  writes their counters and solutions
//                                  as the "after" sides of
//                                  BENCH_streak.json (STREAK_BENCH_JSON
//                                  overrides the path). Both kernels'
//                                  "before" sides are frozen: they are
//                                  copied from the committed
//                                  BENCH_streak.json, since the legacy
//                                  searches no longer run inside the
//                                  flow. Judging the output is
//                                  report_check --bench's job.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "lp_oracle.hpp"
#include "maze_oracle.hpp"
#include "core/identify.hpp"
#include "core/regularity.hpp"
#include "core/similarity.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "ilp/lp.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "route/maze.hpp"
#include "steiner/rsmt.hpp"

namespace {

using namespace streak;

std::vector<geom::Point> randomPins(int n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> coord(0, 60);
    std::vector<geom::Point> pins;
    pins.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) pins.push_back({coord(rng), coord(rng)});
    return pins;
}

void BM_RectilinearMST(benchmark::State& state) {
    const auto pins = randomPins(static_cast<int>(state.range(0)), 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(steiner::mstLength(pins));
    }
}
BENCHMARK(BM_RectilinearMST)->Arg(4)->Arg(8)->Arg(14);

void BM_Iterated1Steiner(benchmark::State& state) {
    const auto pins = randomPins(static_cast<int>(state.range(0)), 11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(steiner::iterated1Steiner(pins));
    }
}
BENCHMARK(BM_Iterated1Steiner)->Arg(5)->Arg(9)->Arg(14);

/// Ablation: backbone candidate count K (maxCandidates).
void BM_EnumerateTopologies_K(benchmark::State& state) {
    const auto pins = randomPins(9, 13);
    steiner::EnumerateOptions opts;
    opts.maxCandidates = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(steiner::enumerateTopologies(pins, 0, opts));
    }
}
BENCHMARK(BM_EnumerateTopologies_K)->Arg(1)->Arg(4)->Arg(8);

/// Ablation: bend penalty lambda in the backbone ranking.
void BM_EnumerateTopologies_Lambda(benchmark::State& state) {
    const auto pins = randomPins(9, 17);
    steiner::EnumerateOptions opts;
    opts.bendPenalty = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto topos = steiner::enumerateTopologies(pins, 0, opts);
        benchmark::DoNotOptimize(topos.front().bendCount());
    }
}
BENCHMARK(BM_EnumerateTopologies_Lambda)->Arg(0)->Arg(2)->Arg(8);

void BM_SimilarityVector(benchmark::State& state) {
    Bit bit;
    bit.pins = randomPins(static_cast<int>(state.range(0)), 19);
    bit.driver = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bitSimilarities(bit));
    }
}
BENCHMARK(BM_SimilarityVector)->Arg(2)->Arg(8)->Arg(14);

void BM_IdentifyObjects(benchmark::State& state) {
    const Design d = gen::makeSynth(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(identifyObjects(d));
    }
}
BENCHMARK(BM_IdentifyObjects);

void BM_RegularityRatio(benchmark::State& state) {
    const auto pins = randomPins(8, 23);
    const auto a = steiner::enumerateTopologies(pins, 0);
    const auto pins2 = randomPins(8, 29);
    const auto b = steiner::enumerateTopologies(pins2, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(regularityRatio(a.front(), b.front()));
    }
}
BENCHMARK(BM_RegularityRatio);

void BM_MazeRoute(benchmark::State& state) {
    grid::RoutingGrid g(64, 64, 6, 12);
    for (auto _ : state) {
        grid::EdgeUsage usage(g);
        route::MazeRouter router(&usage);
        benchmark::DoNotOptimize(router.route({{4, 4}, {58, 50}, {30, 60}}, 0));
    }
}
BENCHMARK(BM_MazeRoute);

/// Before/after pair for the maze-search kernel: Arg(0) = full-grid
/// Dijkstra (the test oracle), Arg(1) = A* + bounding window with an
/// epoch-stamped shared scratch. Same nets, identical routed trees.
void BM_MazeSearchKernel(benchmark::State& state) {
    const bool fast = state.range(0) != 0;
    grid::RoutingGrid g(64, 64, 6, 12);
    const std::vector<std::vector<geom::Point>> nets = {
        {{4, 4}, {58, 50}, {30, 60}},
        {{10, 60}, {55, 8}},
        {{2, 30}, {61, 33}, {31, 2}, {33, 62}}};
    route::SearchState scratch;
    for (auto _ : state) {
        grid::EdgeUsage usage(g);
        route::MazeRouter router(&usage);
        for (const std::vector<geom::Point>& pins : nets) {
            benchmark::DoNotOptimize(
                fast ? router.route(pins, 0, &scratch)
                     : testoracle::routeDijkstra(&usage, pins, 0));
        }
    }
}
BENCHMARK(BM_MazeSearchKernel)->Arg(0)->Arg(1);

/// A Streak-shaped LP relaxation: per-group selection rows (Equal 1)
/// over candidate variables plus one shared capacity row — the structure
/// branch-and-bound re-solves at every node.
ilp::Model selectionLp(int groups, int candsPerGroup) {
    ilp::Model m;
    std::vector<std::pair<int, double>> capacity;
    for (int gidx = 0; gidx < groups; ++gidx) {
        std::vector<std::pair<int, double>> sel;
        for (int c = 0; c < candsPerGroup; ++c) {
            const int v = m.addVariable(
                1.0 + 0.25 * static_cast<double>((gidx * candsPerGroup + c) %
                                                 7),
                false, 0.0, 1.0);
            sel.emplace_back(v, 1.0);
            capacity.emplace_back(v,
                                  1.0 + static_cast<double>(c % 3));
        }
        m.addRow(std::move(sel), ilp::Sense::Equal, 1.0);
    }
    m.addRow(std::move(capacity), ilp::Sense::LessEqual,
             static_cast<double>(groups) * 1.5);
    return m;
}

/// Before/after pair for the simplex kernel: Arg(0) = legacy explicit
/// upper-bound rows (the test oracle), Arg(1) = bounded-variable tableau.
void BM_SimplexKernel(benchmark::State& state) {
    const bool bounded = state.range(0) != 0;
    const ilp::Model m = selectionLp(8, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(bounded ? solveLp(m)
                                         : testoracle::solveLpLegacy(m));
    }
}
BENCHMARK(BM_SimplexKernel)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// --report mode: counter producer over the shrunk synth suite
// (gen::shrunkSynthSpec: Table I suites scaled down so the ILP runs
// finish in well under a second).
// ---------------------------------------------------------------------------

long long counterOf(const obs::Snapshot& snap, const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

int reportErrors = 0;

void reportFail(const std::string& message) {
    std::cerr << "micro_kernels --report: " << message << '\n';
    ++reportErrors;
}

/// One A* + window maze-search run over a design's nets: counter deltas
/// + solution. Every bit goes through the maze (no pattern-route
/// shortcut — this measures the search kernel itself), sharing one usage
/// map so later nets see the congestion earlier nets committed, and one
/// epoch-stamped scratch across all nets.
struct MazeRun {
    int totalBits = 0;
    int routedBits = 0;
    long wirelength = 0;
    long vias = 0;
    obs::Snapshot counters;
    double seconds = 0.0;
};

MazeRun runMaze(const Design& design) {
    MazeRun run;
    grid::EdgeUsage usage(design.grid);
    route::MazeRouter router(&usage);
    route::SearchState scratch;
    const obs::Snapshot base = obs::snapshotMetrics();
    obs::setDetailEnabled(true);
    const obs::Stopwatch watch;
    for (const SignalGroup& group : design.groups) {
        for (const Bit& bit : group.bits) {
            ++run.totalBits;
            const auto net = router.route(bit.pins, bit.driver, &scratch);
            if (net) {
                ++run.routedBits;
                run.wirelength += net->wirelength2d;
                run.vias += net->viaCount;
            }
        }
    }
    run.seconds = watch.seconds();
    obs::setDetailEnabled(false);
    run.counters = obs::snapshotMetrics().minus(base);
    return run;
}

obs::json::Object mazeSide(const MazeRun& run, const std::string& variant) {
    obs::json::Object side;
    side.set("variant", variant);
    side.set("seconds", run.seconds);
    obs::json::Object counters;
    for (const char* name :
         {"route/maze.pops", "route/maze.pushes", "route/maze.window_growths",
          "route/maze.window_fallbacks"}) {
        counters.set(name, counterOf(run.counters, name));
    }
    side.set("counters", std::move(counters));
    obs::json::Object solution;
    solution.set("routedBits", run.routedBits);
    solution.set("totalBits", run.totalBits);
    solution.set("wirelength", run.wirelength);
    solution.set("vias", run.vias);
    side.set("solution", std::move(solution));
    return side;
}

/// One ILP-flow run: solver counters + the selection objective/metrics.
struct IlpRun {
    StreakResult result;
    double solveSeconds = 0.0;

    explicit IlpRun(const grid::RoutingGrid& g) : result(g) {}
};

IlpRun runIlpFlow(const Design& design) {
    IlpRun run(design.grid);
    StreakOptions opts = bench::baseOptions();
    opts.solver = SolverKind::Ilp;
    opts.ilpTimeLimitSeconds = 10.0;
    opts.observer = bench::observeNothing;  // turn on per-run counters
    run.result = runStreak(design, opts).value();
    run.solveSeconds = run.result.solveSeconds();
    return run;
}

obs::json::Object ilpSide(const IlpRun& run, const std::string& variant) {
    obs::json::Object side;
    side.set("variant", variant);
    side.set("seconds", run.solveSeconds);
    obs::json::Object counters;
    for (const char* name :
         {"ilp/lp.solves", "ilp/lp.pivots", "ilp/lp.bound_flips",
          "ilp/bnb.nodes_explored"}) {
        counters.set(name, counterOf(run.result.counters, name));
    }
    side.set("counters", std::move(counters));
    obs::json::Object solution;
    solution.set("objective", run.result.solverSolution.objective);
    solution.set("routability", run.result.metrics.routability);
    solution.set("wirelength", run.result.metrics.wirelength);
    solution.set("totalOverflow", run.result.metrics.totalOverflow);
    solution.set("hitTimeLimit", run.result.hitTimeLimit);
    side.set("solution", std::move(solution));
    return side;
}

double dropPercent(long long before, long long after) {
    if (before <= 0) return 0.0;
    return 100.0 * static_cast<double>(before - after) /
           static_cast<double>(before);
}

/// The committed report's frozen "before" side of a kernel for a design:
/// the legacy search's counters and solution (full-grid Dijkstra for
/// route/maze, the explicit-bound-row simplex for ilp/lp), measured when
/// it still ran inside the flow.
const obs::json::Value* frozenBefore(const obs::json::Value& baseline,
                                     const std::string& kernelName,
                                     const std::string& design) {
    const obs::json::Value* kernels = baseline.find("kernels");
    if (kernels == nullptr || kernels->kind() != obs::json::Kind::Array) {
        return nullptr;
    }
    for (const obs::json::Value& entry : kernels->asArray()) {
        const obs::json::Value* kernel = entry.find("kernel");
        const obs::json::Value* name = entry.find("design");
        if (kernel != nullptr && name != nullptr &&
            kernel->asString() == kernelName && name->asString() == design) {
            return entry.find("before");
        }
    }
    return nullptr;
}

double numberAt(const obs::json::Value& side, const char* section,
                const char* key) {
    const obs::json::Value* obj = side.find(section);
    const obs::json::Value* v = obj != nullptr ? obj->find(key) : nullptr;
    return v != nullptr ? v->asNumber() : 0.0;
}

int runReport() {
    const std::string baselinePath = STREAK_BENCH_BASELINE;
    obs::json::Value baseline;
    {
        std::ifstream in(baselinePath);
        std::stringstream text;
        text << in.rdbuf();
        std::string error;
        baseline = obs::json::parse(text.str(), &error);
        if (!in || baseline.isNull()) {
            reportFail("cannot read the frozen baseline " + baselinePath +
                       (error.empty() ? "" : ": " + error));
            return 1;
        }
    }

    obs::json::Array kernels;
    long long mazePopsBefore = 0;
    long long mazePopsAfter = 0;
    long long lpPivotsBefore = 0;
    long long lpPivotsAfter = 0;

    for (int i = 1; i <= 7; ++i) {
        const gen::SuiteSpec spec = gen::shrunkSynthSpec(i);
        const Design design = gen::generate(spec);

        const obs::json::Value* dijkstra =
            frozenBefore(baseline, "route/maze", spec.name);
        const obs::json::Value* legacy =
            frozenBefore(baseline, "ilp/lp", spec.name);
        if (dijkstra == nullptr || legacy == nullptr) {
            reportFail(spec.name + ": no frozen before sides in " +
                       baselinePath);
            continue;
        }

        // Maze kernel: A* + window against the frozen full-grid Dijkstra.
        const MazeRun after = runMaze(design);
        const auto popsB = static_cast<long long>(
            numberAt(*dijkstra, "counters", "route/maze.pops"));
        const long long popsA = counterOf(after.counters, "route/maze.pops");
        mazePopsBefore += popsB;
        mazePopsAfter += popsA;
        obs::json::Object maze;
        maze.set("kernel", "route/maze");
        maze.set("design", spec.name);
        maze.set("before", *dijkstra);
        maze.set("after", mazeSide(after, "astar-window"));
        maze.set("popsDropPercent", dropPercent(popsB, popsA));
        kernels.push_back(obs::json::Value(std::move(maze)));

        // Simplex kernel: the ILP flow end-to-end on the bounded engine
        // against the frozen legacy-engine side.
        const IlpRun bounded = runIlpFlow(design);
        if (bounded.result.hitTimeLimit) {
            reportFail(spec.name + ": ILP hit the time limit; shrink more");
        }
        const auto pivB = static_cast<long long>(
            numberAt(*legacy, "counters", "ilp/lp.pivots"));
        const long long pivA =
            counterOf(bounded.result.counters, "ilp/lp.pivots");
        lpPivotsBefore += pivB;
        lpPivotsAfter += pivA;
        obs::json::Object lp;
        lp.set("kernel", "ilp/lp");
        lp.set("design", spec.name);
        lp.set("before", *legacy);
        lp.set("after", ilpSide(bounded, "bounded"));
        lp.set("pivotsDropPercent", dropPercent(pivB, pivA));
        kernels.push_back(obs::json::Value(std::move(lp)));

        std::cout << spec.name << ": maze pops " << popsB << " -> " << popsA
                  << " (" << dropPercent(popsB, popsA) << "%), lp pivots "
                  << pivB << " -> " << pivA << " ("
                  << dropPercent(pivB, pivA) << "%)\n";
    }

    obs::json::Object totals;
    obs::json::Object mazeTotals;
    mazeTotals.set("popsBefore", mazePopsBefore);
    mazeTotals.set("popsAfter", mazePopsAfter);
    mazeTotals.set("dropPercent", dropPercent(mazePopsBefore, mazePopsAfter));
    totals.set("maze", std::move(mazeTotals));
    obs::json::Object lpTotals;
    lpTotals.set("pivotsBefore", lpPivotsBefore);
    lpTotals.set("pivotsAfter", lpPivotsAfter);
    lpTotals.set("dropPercent", dropPercent(lpPivotsBefore, lpPivotsAfter));
    totals.set("lp", std::move(lpTotals));

    obs::json::Object doc;
    doc.set("schema", "streak-kernel-bench");
    doc.set("schemaVersion", 1);
    doc.set("bench", "streak");
    doc.set("kernels", std::move(kernels));
    doc.set("totals", std::move(totals));

    const char* env = std::getenv("STREAK_BENCH_JSON");
    const std::string path = env != nullptr ? env : "BENCH_streak.json";
    std::ofstream os(path);
    if (!os) {
        reportFail("cannot open " + path);
    } else {
        obs::json::Value(std::move(doc)).write(os, 2);
        os << '\n';
        std::cout << "wrote " << path << '\n';
    }

    std::cout << "totals: maze pops " << mazePopsBefore << " -> "
              << mazePopsAfter << " ("
              << dropPercent(mazePopsBefore, mazePopsAfter)
              << "%), lp pivots " << lpPivotsBefore << " -> " << lpPivotsAfter
              << " (" << dropPercent(lpPivotsBefore, lpPivotsAfter) << "%)\n";
    return reportErrors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--report") == 0) return runReport();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
