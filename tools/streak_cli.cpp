// streak — command-line front end for the Streak router.
//
//   streak generate <suite 1-7|spec> <out.streak>   write a benchmark
//   streak info     <design.streak>                 print design stats;
//                                                   exit 3 on Error findings
//   streak route    <design.streak> [options]       route and report
//   streak eco      <ckpt.streakeco> [options]      apply deltas, re-route
//   streak campaign run  [options]                  sweep configs x suites
//   streak campaign diff <store.jsonl> [options]    flag regressions
//
// route options:
//   --solver=pd|ilp        selection engine (default pd)
//   --ilp-limit=<sec>      ILP time cap (default 60)
//   --threads=<n>          worker threads (0 = hardware, 1 = serial);
//                          results are identical for every value
//   --no-post              skip post optimization
//   --no-clustering        post-opt without bottom-up clustering
//   --no-refinement        post-opt without distance refinement
//   --backbones=<k>        backbone candidates per object (default 4)
//   --heatmap=<file.csv>   dump the congestion map as CSV
//   --report=<file.json>   write the schema-versioned run report (spans,
//                          counters, metrics); turns on detail
//                          instrumentation for the run
//   --trace=<file.json>    write a chrome://tracing / Perfetto trace of
//                          the run's span tree; also turns on detail
//   --deadline=<sec>       wall-clock budget for the whole run; on expiry
//                          the flow degrades (cheaper engine / partial
//                          solution) or fails with exit code 4
//   --checkpoint=<file>    freeze the routed state (design, options,
//                          topologies, usage) for later `streak eco`
//   --quiet                only the summary line
// A number that does not parse or is out of range (--ilp-limit and
// --deadline below 0, --threads outside 0-1024, --backbones below 1) is
// a usage error (exit 2), as is the generate suite index outside 1-7.
//
// eco options:
//   --deltas=<file>        delta script to apply (required); directives
//                          MOVEPIN / ADDBLOCKAGE / REMOVEBLOCKAGE /
//                          RESIZECAPACITY, '#' comments
//   --threads=<n>          override the checkpoint's thread count for this
//                          run (the result, and the --save bytes, are
//                          identical for every value)
//   --report=<file.json>   write the run report (streak-run-report schema
//                          plus an "eco" section)
//   --save=<file>          checkpoint the re-routed result, so another
//                          delta batch can chain on top
//   --quiet                only the summary lines
// The mutated design is re-routed from scratch with the checkpoint's
// options (DESIGN.md "ECO").
//
// campaign run options:
//   --store=<file.jsonl>   append one schema-versioned record per sweep
//                          point (config x suite x threads) to this
//                          JSON-lines store (required)
//   --configs=<a,b>        built-in configs to sweep (default all:
//                          pd, pd-nopost, ilp, manual)
//   --suites=<1,3,7>       shrunk synth suites to route (default 1-7)
//   --threads=<0,2>        thread counts to sweep (default 0); counter
//                          values are identical for every count
//   --scale-counter=<name:factor>
//                          multiply a persisted counter (repeatable);
//                          drill knob for exercising `campaign diff`
//   --quiet                no per-run progress lines
// A malformed campaign option value (unknown config, suite outside 1-7,
// a number that does not parse, a scale factor outside (0, 2^53]) is a
// usage error (exit 2).
//
// campaign diff options:
//   --baseline=<file.jsonl>  prior store to compare against (required)
//   --verdict=<file.json>    write the machine-readable verdict
//   --counter-pct=<p>        counter growth threshold (default 10)
//   --quiet                  only the verdict summary line
//
// The stage table's "speedup" column estimates per-stage parallel
// speedup (task seconds / wall seconds); it is printed only when the
// run used more than one thread.
//
// Exit codes: 0 success (possibly degraded), 1 unexpected error, 2 bad
// usage, 3 invalid input, 4 deadline expired, 5 cancelled, 6 injected
// fault, 7 internal error, 8 campaign regression. Fault-injection builds
// honor the STREAK_FAULT environment variable ("site" or "site:hit", see
// robust/fault.hpp).
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "eco/checkpoint.hpp"
#include "eco/delta.hpp"
#include "eco/eco.hpp"
#include "flow/report.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "core/validate.hpp"
#include "io/design_io.hpp"
#include "io/heatmap.hpp"
#include "io/svg.hpp"
#include "io/table.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"

namespace {

using namespace streak;

int usage() {
    std::cerr << "usage:\n"
              << "  streak generate <suite 1-7> <out.streak>\n"
              << "  streak info <design.streak>\n"
              << "  streak campaign run --store=FILE.jsonl [--configs=A,B]"
                 " [--suites=1,2,..] [--threads=N,M]"
                 " [--scale-counter=NAME:FACTOR] [--quiet]\n"
              << "  streak campaign diff <store.jsonl> --baseline=FILE.jsonl"
                 " [--verdict=FILE.json]"
                 " [--counter-pct=P] [--quiet]\n"
              << "  streak route <design.streak> [--solver=pd|ilp]"
                 " [--ilp-limit=SEC] [--threads=N] [--no-post]"
                 " [--no-clustering] [--no-refinement] [--backbones=K]"
                 " [--heatmap=FILE] [--report=FILE.json] [--trace=FILE.json]"
                 " [--deadline=SEC] [--checkpoint=FILE] [--quiet]\n"
              << "  streak eco <ckpt> --deltas=FILE [--threads=N]"
                 " [--report=FILE.json] [--save=FILE] [--quiet]\n"
              << "\n"
                 "route prints a per-stage table; its speedup column"
                 " (task seconds / wall seconds) appears only for"
                 " multi-threaded runs.\n"
                 "exit codes: 0 ok, 1 unexpected, 2 usage, 3 invalid input,"
                 " 4 deadline, 5 cancelled, 6 injected fault, 7 internal,"
                 " 8 campaign regression.\n";
    return 2;
}

/// Thrown on a malformed option value; main turns it into exit 2.
struct UsageError : std::invalid_argument {
    using std::invalid_argument::invalid_argument;
};

/// A decimal integer in [lo, hi] for `option`.
int parseInt(const std::string& text, const char* option, long lo, long hi) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || v < lo || v > hi) {
        throw UsageError(std::string(option) + " wants an integer in [" +
                         std::to_string(lo) + ", " + std::to_string(hi) +
                         "], got '" + text + "'");
    }
    return static_cast<int>(v);
}

/// "1,3,7" -> {1, 3, 7}, every entry in [lo, hi].
std::vector<int> parseIntList(const std::string& text, const char* option,
                              long lo, long hi) {
    std::vector<int> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        out.push_back(parseInt(item, option, lo, hi));
    }
    if (out.empty()) throw UsageError(std::string(option) + " wants a list");
    return out;
}

/// A finite, non-negative number for `option`.
double parseAmount(const std::string& text, const char* option) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(v) || v < 0.0) {
        throw UsageError(std::string(option) + " wants a non-negative " +
                         "number, got '" + text + "'");
    }
    return v;
}

/// Worker-thread ceiling for --threads=: more workers than this is a
/// typo, not a machine.
constexpr long kMaxThreads = 1024;

int cmdGenerate(int argc, char** argv) {
    if (argc != 4) return usage();
    const int suite = parseInt(argv[2], "suite index", 1, 7);
    const Design d = gen::makeSynth(suite);
    io::writeDesignFile(d, argv[3]);
    std::cout << "wrote " << argv[3] << " (" << d.numGroups() << " groups, "
              << d.numNets() << " nets)\n";
    return 0;
}

int cmdInfo(int argc, char** argv) {
    if (argc != 3) return usage();
    const Design d = io::readDesignFile(argv[2]);
    io::Table t({"metric", "value"});
    t.addRow({"grid", std::to_string(d.grid.width()) + " x " +
                          std::to_string(d.grid.height()) + " x " +
                          std::to_string(d.grid.numLayers())});
    t.addRow({"signal groups", std::to_string(d.numGroups())});
    t.addRow({"nets (bits)", std::to_string(d.numNets())});
    t.addRow({"total pins", std::to_string(d.totalPins())});
    t.addRow({"Np_max", std::to_string(d.maxPins())});
    t.addRow({"W_max", std::to_string(d.maxWidth())});
    t.print(std::cout);
    const auto issues = validateDesign(d);
    for (const ValidationIssue& i : issues) {
        std::cout << (i.severity == ValidationIssue::Severity::Error
                          ? "error: "
                          : "warning: ")
                  << i.message << '\n';
    }
    if (issues.empty()) std::cout << "design is clean\n";
    // A design with Error findings is invalid input, like a parse error.
    return isRoutable(issues)
               ? 0
               : robust::exitCodeFor(robust::ErrorKind::InvalidInput);
}

int cmdRoute(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string path = argv[2];
    StreakOptions opts;
    opts.postOptimize = true;
    opts.ilpTimeLimitSeconds = 60.0;
    std::string heatmapPath;
    std::string svgPath;
    std::string reportPath;
    std::string tracePath;
    std::string checkpointPath;
    bool quiet = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg == "--solver=pd") {
            opts.solver = SolverKind::PrimalDual;
        } else if (arg == "--solver=ilp") {
            opts.solver = SolverKind::Ilp;
        } else if (arg == "--solver=hilp") {
            opts.solver = SolverKind::IlpHierarchical;
        } else if (arg.rfind("--ilp-limit=", 0) == 0) {
            opts.ilpTimeLimitSeconds =
                parseAmount(value("--ilp-limit="), "--ilp-limit");
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads =
                parseInt(value("--threads="), "--threads", 0, kMaxThreads);
        } else if (arg == "--no-post") {
            opts.postOptimize = false;
        } else if (arg == "--no-clustering") {
            opts.clusteringEnabled = false;
        } else if (arg == "--no-refinement") {
            opts.refinementEnabled = false;
        } else if (arg.rfind("--backbones=", 0) == 0) {
            opts.backbone.maxBackbones =
                parseInt(value("--backbones="), "--backbones", 1,
                         std::numeric_limits<int>::max());
        } else if (arg.rfind("--heatmap=", 0) == 0) {
            heatmapPath = value("--heatmap=");
        } else if (arg.rfind("--svg=", 0) == 0) {
            svgPath = value("--svg=");
        } else if (arg.rfind("--report=", 0) == 0) {
            reportPath = value("--report=");
        } else if (arg.rfind("--trace=", 0) == 0) {
            tracePath = value("--trace=");
        } else if (arg.rfind("--deadline=", 0) == 0) {
            opts.deadlineSeconds =
                parseAmount(value("--deadline="), "--deadline");
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            checkpointPath = value("--checkpoint=");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "streak: unknown option " << arg << '\n';
            return 2;
        }
    }

    // Either export needs the detailed spans / counters; the observer
    // hook is how a run opts into them.
    if (!reportPath.empty() || !tracePath.empty()) {
        opts.observer = [](const StreakObservation&) {};
    }

    const Design d = io::readDesignFile(path);
    const FlowResult flow = runStreak(d, opts);
    if (!flow.ok()) {
        std::cerr << "streak: " << flow.error().describe() << '\n';
        return robust::exitCodeFor(flow.error().kind);
    }
    const StreakResult& r = flow.value();

    for (const robust::Degradation& deg : r.degradations) {
        std::cerr << "streak: degraded: " << deg.rung << " at " << deg.stage
                  << " (" << deg.message << ")\n";
    }
    std::cout << "routed " << r.metrics.routedBits << "/"
              << r.metrics.totalBits << " ("
              << io::Table::percent(r.metrics.routability) << "), WL "
              << r.metrics.wirelength << ", Avg(Reg) "
              << io::Table::percent(r.metrics.avgRegularity) << ", Vio(dst) "
              << r.distanceViolationsBefore << " -> "
              << r.distanceViolationsAfter << ", overflow "
              << r.metrics.totalOverflow << '\n';
    if (!quiet) {
        // A single-threaded run has nothing to speed up — every stage
        // would print "1.00x" noise — so the column only appears for
        // multi-threaded runs.
        const bool showSpeedup = r.threadsUsed > 1;
        const auto speedup = [](const parallel::RegionStats& s) {
            if (s.regions == 0) return std::string("-");
            return io::Table::fixed(s.speedupEstimate(), 2) + "x";
        };
        std::vector<std::string> header{"stage", "seconds"};
        if (showSpeedup) header.push_back("speedup");
        io::Table t(header);
        const auto addStage = [&](std::string name, std::string seconds,
                                  const parallel::RegionStats& stats) {
            std::vector<std::string> row{std::move(name), std::move(seconds)};
            if (showSpeedup) row.push_back(speedup(stats));
            t.addRow(row);
        };
        addStage("build (identify+candidates)",
                 io::Table::fixed(r.buildSeconds(), 3), r.buildParallel());
        const char* solverName =
            opts.solver == SolverKind::Ilp               ? "solve (ILP)"
            : opts.solver == SolverKind::IlpHierarchical ? "solve (hier. ILP)"
                                                         : "solve (primal-dual)";
        addStage(solverName,
                 io::Table::fixed(r.solveSeconds(), 3) +
                     (r.hitTimeLimit ? " (limit)" : ""),
                 r.solveParallel());
        addStage("distance analysis", io::Table::fixed(r.distanceSeconds(), 3),
                 r.distanceParallel());
        addStage("post optimization", io::Table::fixed(r.postSeconds(), 3),
                 r.postParallel());
        t.print(std::cout);
        std::cout << "objects: " << r.problem.numObjects()
                  << ", unrouted bits: " << r.routed.unroutedMembers.size()
                  << ", threads: " << r.threadsUsed << '\n';
    }
    if (!reportPath.empty()) {
        std::ofstream os(reportPath);
        if (!os) {
            std::cerr << "streak: cannot open " << reportPath << '\n';
            return 1;
        }
        flow::writeRunReport(d, opts, r, os);
        if (!quiet) std::cout << "wrote " << reportPath << '\n';
    }
    if (!tracePath.empty()) {
        std::ofstream os(tracePath);
        if (!os) {
            std::cerr << "streak: cannot open " << tracePath << '\n';
            return 1;
        }
        obs::writeChromeTrace(r.trace, os);
        if (!quiet) std::cout << "wrote " << tracePath << '\n';
    }
    if (!heatmapPath.empty()) {
        std::ofstream os(heatmapPath);
        if (!os) {
            std::cerr << "streak: cannot open " << heatmapPath << '\n';
            return 1;
        }
        io::writeCsvHeatmap(r.routed.usage, os);
        if (!quiet) std::cout << "wrote " << heatmapPath << '\n';
    }
    if (!svgPath.empty()) {
        std::ofstream os(svgPath);
        if (!os) {
            std::cerr << "streak: cannot open " << svgPath << '\n';
            return 1;
        }
        io::writeSvg(r.routed, os);
        if (!quiet) std::cout << "wrote " << svgPath << '\n';
    }
    if (!checkpointPath.empty()) {
        eco::writeCheckpointFile(eco::makeCheckpoint(d, opts, r),
                                 checkpointPath);
        if (!quiet) std::cout << "wrote " << checkpointPath << '\n';
    }
    return 0;
}

int cmdEco(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string ckptPath = argv[2];
    std::string deltasPath;
    std::string reportPath;
    std::string savePath;
    int threads = -1;
    bool quiet = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--deltas=", 0) == 0) {
            deltasPath = value("--deltas=");
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads =
                parseInt(value("--threads="), "--threads", 0, kMaxThreads);
        } else if (arg.rfind("--report=", 0) == 0) {
            reportPath = value("--report=");
        } else if (arg.rfind("--save=", 0) == 0) {
            savePath = value("--save=");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "streak: unknown option " << arg << '\n';
            return 2;
        }
    }
    if (deltasPath.empty()) {
        std::cerr << "streak: eco needs --deltas=FILE\n";
        return 2;
    }

    const eco::Checkpoint ckpt = eco::readCheckpointFile(ckptPath);
    const std::vector<eco::Delta> deltas =
        eco::parseDeltaScriptFile(deltasPath);
    if (!quiet) {
        std::cout << "loaded " << ckptPath << " ("
                  << ckpt.design->numGroups() << " groups, "
                  << ckpt.design->numNets() << " nets), " << deltas.size()
                  << " delta" << (deltas.size() == 1 ? "" : "s") << '\n';
    }

    const obs::Stopwatch watch;
    const eco::EcoResult r = eco::runEco(ckpt, deltas, threads);
    const double seconds = watch.seconds();

    StreakOptions effective = eco::semanticOptions(ckpt.opts);
    if (threads >= 0) effective.threads = threads;

    for (const robust::Degradation& deg : r.sub->degradations) {
        std::cerr << "streak: degraded: " << deg.rung << " at " << deg.stage
                  << " (" << deg.message << ")\n";
    }
    std::cout << "eco: re-routed " << r.totalGroups << " groups, "
              << io::Table::fixed(seconds, 3) << "s\n";
    std::cout << "routed " << r.metrics.routedBits << "/"
              << r.metrics.totalBits << " ("
              << io::Table::percent(r.metrics.routability) << "), WL "
              << r.metrics.wirelength << ", Avg(Reg) "
              << io::Table::percent(r.metrics.avgRegularity) << ", Vio(dst) "
              << r.distanceViolationsBefore << " -> "
              << r.distanceViolationsAfter << ", overflow "
              << r.metrics.totalOverflow << '\n';

    if (!reportPath.empty()) {
        std::ofstream os(reportPath);
        if (!os) {
            std::cerr << "streak: cannot open " << reportPath << '\n';
            return 1;
        }
        eco::buildEcoReport(r, effective, seconds).write(os, 2);
        os << '\n';
        if (!quiet) std::cout << "wrote " << reportPath << '\n';
    }
    if (!savePath.empty()) {
        // The checkpoint keeps its own options: a --threads override
        // shapes this process's run, not the routed state, so the saved
        // bytes are the same for every thread count.
        eco::writeCheckpointFile(eco::makeCheckpoint(r, ckpt.opts), savePath);
        if (!quiet) std::cout << "wrote " << savePath << '\n';
    }
    return 0;
}

int cmdCampaignRun(int argc, char** argv) {
    campaign::CampaignSpec spec;
    std::string storePath;
    bool quiet = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--store=", 0) == 0) {
            storePath = value("--store=");
        } else if (arg.rfind("--configs=", 0) == 0) {
            spec.configs.clear();
            std::stringstream ss(value("--configs="));
            std::string name;
            while (std::getline(ss, name, ',')) {
                try {
                    spec.configs.push_back(campaign::configByName(name));
                } catch (const std::invalid_argument& e) {
                    throw UsageError(e.what());
                }
            }
        } else if (arg.rfind("--suites=", 0) == 0) {
            spec.suites = parseIntList(value("--suites="), "--suites", 1, 7);
        } else if (arg.rfind("--threads=", 0) == 0) {
            spec.threads = parseIntList(value("--threads="), "--threads",
                                        std::numeric_limits<int>::min(),
                                        std::numeric_limits<int>::max());
        } else if (arg.rfind("--scale-counter=", 0) == 0) {
            const std::string knob = value("--scale-counter=");
            const size_t colon = knob.rfind(':');
            if (colon == std::string::npos || colon == 0) {
                std::cerr << "streak: --scale-counter wants NAME:FACTOR\n";
                return 2;
            }
            const double factor =
                parseAmount(knob.substr(colon + 1), "--scale-counter");
            if (factor <= 0.0 || factor > campaign::kMaxStoredCount) {
                throw UsageError("--scale-counter wants a factor in "
                                 "(0, 2^53], got '" +
                                 knob.substr(colon + 1) + "'");
            }
            spec.scaleCounters[knob.substr(0, colon)] = factor;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "streak: unknown option " << arg << '\n';
            return 2;
        }
    }
    if (storePath.empty()) {
        std::cerr << "streak: campaign run needs --store=FILE.jsonl\n";
        return 2;
    }

    const std::vector<campaign::RunRecord> records =
        campaign::runCampaign(spec, quiet ? nullptr : &std::cout);
    std::ofstream os(storePath, std::ios::app);
    if (!os) {
        std::cerr << "streak: cannot open " << storePath << '\n';
        return 1;
    }
    campaign::appendStore(records, os);
    std::cout << "campaign: appended " << records.size() << " record"
              << (records.size() == 1 ? "" : "s") << " to " << storePath
              << '\n';
    return 0;
}

int cmdCampaignDiff(int argc, char** argv) {
    if (argc < 4) return usage();
    const std::string currentPath = argv[3];
    std::string baselinePath;
    std::string verdictPath;
    campaign::DiffThresholds thresholds;
    bool quiet = false;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) -> std::string {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--baseline=", 0) == 0) {
            baselinePath = value("--baseline=");
        } else if (arg.rfind("--verdict=", 0) == 0) {
            verdictPath = value("--verdict=");
        } else if (arg.rfind("--counter-pct=", 0) == 0) {
            thresholds.counterGrowth =
                parseAmount(value("--counter-pct="), "--counter-pct") / 100.0;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "streak: unknown option " << arg << '\n';
            return 2;
        }
    }
    if (baselinePath.empty()) {
        std::cerr << "streak: campaign diff needs --baseline=FILE.jsonl\n";
        return 2;
    }

    const campaign::Store current = campaign::readStoreFile(currentPath);
    for (const std::string& problem : current.problems) {
        std::cerr << "streak: campaign: " << problem << '\n';
    }
    if (current.records.empty()) {
        std::cerr << "streak: " << currentPath
                  << " holds no valid campaign records\n";
        return 3;
    }

    const campaign::Store baseline = campaign::readStoreFile(baselinePath);
    for (const std::string& problem : baseline.problems) {
        std::cerr << "streak: campaign: " << problem << '\n';
    }
    const campaign::DiffReport report =
        campaign::diffAgainstStore(baseline, current, thresholds);
    if (!quiet) {
        for (const std::string& note : report.notes) {
            std::cout << "campaign: note (" << report.against << "): " << note
                      << '\n';
        }
    }
    for (const campaign::Regression& r : report.regressions) {
        std::cerr << "campaign: REGRESSION (" << report.against << ") "
                  << r.kind << ' ' << r.config << '/' << r.instance << ' '
                  << r.metric << ": " << r.baseline << " -> " << r.current
                  << " (" << io::Table::fixed(r.growthPercent, 1) << "%)\n";
    }
    const auto regressionCount = static_cast<int>(report.regressions.size());
    const obs::json::Value verdict = campaign::verdictJson({report});
    if (!verdictPath.empty()) {
        std::ofstream os(verdictPath);
        if (!os) {
            std::cerr << "streak: cannot open " << verdictPath << '\n';
            return 1;
        }
        verdict.write(os, 2);
        os << '\n';
        if (!quiet) std::cout << "wrote " << verdictPath << '\n';
    }
    const int compared = report.comparedRuns;
    std::cout << "campaign: " << compared << " comparison"
              << (compared == 1 ? "" : "s") << ", " << regressionCount
              << " regression" << (regressionCount == 1 ? "" : "s") << '\n';
    return regressionCount > 0 ? 8 : 0;
}

int cmdCampaign(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string sub = argv[2];
    if (sub == "run") return cmdCampaignRun(argc, argv);
    if (sub == "diff") return cmdCampaignDiff(argc, argv);
    std::cerr << "streak: unknown campaign subcommand " << sub << '\n';
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    streak::robust::armFaultFromEnv();
    try {
        if (cmd == "generate") return cmdGenerate(argc, argv);
        if (cmd == "info") return cmdInfo(argc, argv);
        if (cmd == "route") return cmdRoute(argc, argv);
        if (cmd == "eco") return cmdEco(argc, argv);
        if (cmd == "campaign") return cmdCampaign(argc, argv);
    } catch (const UsageError& e) {
        std::cerr << "streak: " << e.what() << '\n';
        return 2;
    } catch (const streak::robust::StreakException& e) {
        // Structured failures outside runStreak (e.g. reading the design
        // file) still map to their distinct exit codes.
        std::cerr << "streak: " << e.error().describe() << '\n';
        return streak::robust::exitCodeFor(e.error().kind);
    } catch (const std::exception& e) {
        std::cerr << "streak: " << e.what() << '\n';
        return 1;
    }
    return usage();
}
