// perfbench: the end-to-end benchmark program (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Set-up generates and serialises the seeded inputs (several times; the
// median is setup_s). The untraced phase then runs operations through
// the public flow for the time budget, checking every result outside the
// operation timer, and reports the end-to-end metrics. With --trace 1 a
// second, traced phase replays the same operations layer by layer and
// reports the per-layer metrics instead; its spans go to --trace-out.
// The last line of standard output is the JSON result.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "speed.hpp"
#include "workloads.hpp"

namespace {

using perfbench::OpOutcome;

constexpr int kSetups = 7;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "perfbench: " << problem << "\nusage: perfbench --workload <"
              << perfbench::workloadNames()
              << "> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
    std::exit(2);
}

Args parseArgs(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else if (flag == "--trace-out") {
                args.traceOut = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload.empty()) usage("--workload is required");
    if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    return args;
}

/// Calibration kernel runs at most this often (its cost stays ~4%).
constexpr double kCalibrationInterval = 0.1;

/// Run operations 0, 1, 2, ... in whole passes of `passOps` (so every
/// operation of the set weighs the same), as many passes as fit best in
/// `seconds` (checks included), at least one. Between operations the
/// calibration kernel runs every kCalibrationInterval; each operation
/// gets the mean of the kernel times bracketing it. Failures go to
/// stderr.
std::vector<OpOutcome> runPhase(const char* phase, int passOps, double seconds,
                                const std::function<OpOutcome(long)>& op) {
    std::vector<OpOutcome> ops;
    const streak::obs::Stopwatch wall;
    double kernelBefore = perfbench::kernelSeconds();
    streak::obs::Stopwatch sinceKernel;
    size_t uncalibrated = 0;
    const auto calibrate = [&] {
        const double kernelAfter = perfbench::kernelSeconds();
        for (size_t j = uncalibrated; j < ops.size(); ++j) {
            ops[j].kernel = 0.5 * (kernelBefore + kernelAfter);
        }
        uncalibrated = ops.size();
        kernelBefore = kernelAfter;
        sinceKernel.restart();
    };
    long passes = 0;
    do {
        for (int k = 0; k < passOps; ++k) {
            const long i = static_cast<long>(ops.size());
            ops.push_back(op(i));
            if (!ops.back().failure.empty()) {
                std::cerr << "perfbench: " << phase << " operation " << i
                          << " failed: " << ops.back().failure << '\n';
            }
            if (sinceKernel.seconds() >= kCalibrationInterval) calibrate();
        }
        ++passes;
    } while (wall.seconds() * (passes + 0.5) / passes < seconds);
    if (uncalibrated < ops.size()) calibrate();
    return ops;
}

long failures(const std::vector<OpOutcome>& ops) {
    long n = 0;
    for (const OpOutcome& op : ops) n += op.failure.empty() ? 0 : 1;
    return n;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parseArgs(argc, argv);
    const perfbench::WorkloadSpec* spec = perfbench::findWorkload(args.workload);
    if (spec == nullptr) usage("unknown workload " + args.workload);

    try {
        std::vector<double> setupSeconds;
        perfbench::Inputs inputs;
        for (int k = 0; k < kSetups; ++k) {
            const double kernelBefore = perfbench::kernelSeconds();
            const streak::obs::Stopwatch timer;
            inputs = perfbench::setUp(*spec);
            const double wall = timer.seconds();
            const double kernel =
                0.5 * (kernelBefore + perfbench::kernelSeconds());
            setupSeconds.push_back(perfbench::referenceSeconds(wall, kernel));
        }
        std::cout << "# workload " << spec->name << ", seed " << args.seed
                  << ", " << args.seconds << " s per run"
                  << (args.trace ? " (half untraced, then the same operations traced)" : "")
                  << '\n';

        // A traced run gives half its budget to the untraced phase; the
        // traced phase then replays exactly the operations that phase ran,
        // so the tracing overhead compares like with like.
        const double phaseSeconds = args.trace ? args.seconds / 2 : args.seconds;
        perfbench::Runner runner(*spec, args.seed, inputs);
        const std::vector<OpOutcome> untraced =
            runPhase("untraced", spec->passOps, phaseSeconds,
                     [&](long i) { return runner.run(i); });
        const std::vector<perfbench::Metric> endToEnd =
            perfbench::endToEndMetrics(untraced, spec->passOps, setupSeconds,
                                       std::cout);
        perfbench::printMetrics(endToEnd, std::cout);
        long attempted = static_cast<long>(untraced.size());
        long failed = failures(untraced);
        if (!args.trace) {
            std::cout << perfbench::resultJson(failed == 0, attempted, failed,
                                               endToEnd)
                      << std::endl;
            return 0;
        }

        perfbench::SpanLog log;
        perfbench::LayerCounts counts;
        streak::obs::Session session;
        session.setDetailEnabled(true);
        std::vector<std::string> fidelity;
        std::vector<OpOutcome> traced;
        {
            const streak::obs::SessionBind bind(session);
            perfbench::Runner replay(*spec, args.seed, inputs);
            traced = runPhase("traced", static_cast<int>(untraced.size()), 0.0,
                              [&](long i) {
                std::string miss;
                OpOutcome out = replay.runTraced(i, &log, &session, &counts, &miss);
                if (!miss.empty()) {
                    std::cerr << "perfbench: fidelity: " << miss << '\n';
                    fidelity.push_back(miss);
                    if (out.failure.empty()) out.failure = miss;
                }
                return out;
            });
        }
        const std::vector<perfbench::Metric> layers =
            perfbench::perLayerMetrics(log, counts, untraced, traced,
                                       spec->passOps, std::cout);
        perfbench::printMetrics(layers, std::cout);
        if (!args.traceOut.empty()) {
            std::ofstream out(args.traceOut);
            perfbench::writeChromeTrace(log.spans(), out);
            if (!out) {
                std::cerr << "perfbench: cannot write " << args.traceOut << '\n';
                return 1;
            }
            std::cout << "# trace (" << log.spans().size() << " spans): "
                      << args.traceOut << '\n';
        }
        std::cout << "# replay fidelity: " << traced.size() - fidelity.size()
                  << " of " << traced.size() << " operations identical\n";
        attempted += static_cast<long>(traced.size());
        failed += failures(traced);
        std::cout << perfbench::resultJson(failed == 0 && fidelity.empty(),
                                           attempted, failed, layers)
                  << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
