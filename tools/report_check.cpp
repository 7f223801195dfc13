// Validator for the observability exports (DESIGN.md "Observability"):
//
//   report_check [--eco] <report.json> [<trace.json>]
//   report_check --bench <fresh.json> <committed BENCH_streak.json>
//
// Thin CLI over src/flow/report_check.hpp (the checks themselves are a
// library so the test suite can drive them on malformed input without
// spawning a process):
//
//   default    streak-run-report v1 — header fields, required sections
//              (design/options/metrics/robust/process/counters/
//              histograms/spans), a "flow/run" root span; with --eco the
//              eco section `streak eco --report` appends is required,
//              not merely validated when present. The optional second
//              argument is a chrome://tracing export checked for
//              structural validity (balanced per-track B/E events).
//   --bench    a fresh streak-kernel-bench v1 (`micro_kernels
//              --report`) against the committed BENCH_streak.json, the
//              only comparison of fresh kernel numbers with the committed
//              ones: before/after solution equality against the frozen
//              before sides, the >= 30% pops / pivots drop, every
//              committed design present, hot counters at most 10% above
//              the committed after sides, and no quality loss.
//
// Exits non-zero with a message per problem; check.sh runs it over fresh
// `streak route` / `streak eco` / kernel-bench exports, and the
// kernel_bench_contract ctest over a fresh kernel bench.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "flow/report_check.hpp"

namespace {

/// Whole file as a string, or nullopt (with a message) when unreadable.
std::optional<std::string> slurp(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::cerr << "report_check: cannot open " << path << '\n';
        return std::nullopt;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

int finish(const streak::flow::CheckResult& result) {
    for (const std::string& problem : result.problems) {
        std::cerr << "report_check: " << problem << '\n';
    }
    if (!result.ok()) {
        std::cerr << "report_check: " << result.problems.size()
                  << " problem(s)\n";
        return 1;
    }
    std::cout << "report_check: ok\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    bool bench = false;
    bool requireEco = false;
    std::vector<std::string> paths;
    for (const std::string& arg : args) {
        if (arg == "--bench") {
            bench = true;
        } else if (arg == "--eco") {
            requireEco = true;
        } else {
            paths.push_back(arg);
        }
    }
    if (bench && requireEco) {
        std::cerr << "report_check: --bench and --eco are exclusive\n";
        return 2;
    }
    if (paths.empty() || paths.size() > 2u || (bench && paths.size() != 2u)) {
        std::cerr << "usage: report_check [--eco] <report.json> "
                     "[<trace.json>]\n"
                     "       report_check --bench <fresh.json> "
                     "<committed BENCH_streak.json>\n";
        return 2;
    }

    const std::optional<std::string> report = slurp(paths[0]);
    if (!report.has_value()) return 1;
    if (bench) {
        const std::optional<std::string> committed = slurp(paths[1]);
        if (!committed.has_value()) return 1;
        return finish(streak::flow::checkKernelBench(*report, paths[0],
                                                     *committed, paths[1]));
    }
    streak::flow::CheckResult result =
        streak::flow::checkRunReport(*report, paths[0], requireEco);
    if (paths.size() == 2) {
        const std::optional<std::string> trace = slurp(paths[1]);
        if (!trace.has_value()) return 1;
        streak::flow::CheckResult traceResult =
            streak::flow::checkChromeTrace(*trace, paths[1]);
        result.problems.insert(result.problems.end(),
                               traceResult.problems.begin(),
                               traceResult.problems.end());
    }
    return finish(result);
}
