// The report validator library (src/flow/report_check): a genuine run
// report passes, and every class of malformed input — truncated JSON,
// wrong schema or version, missing or mistyped sections — comes back as
// structured problem strings, never a crash. tools/report_check is a
// thin CLI over these functions; check.sh drives it on fresh exports.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "flow/report.hpp"
#include "flow/report_check.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "obs/json.hpp"

namespace streak {
namespace {

namespace json = obs::json;

/// A genuine run report (text form) for the mutation tests.
std::string freshReport() {
    gen::SuiteSpec spec = gen::synthSpec(1);
    spec.numGroups = 4;
    spec.gridWidth = 40;
    spec.gridHeight = 40;
    const Design d = gen::generate(spec);
    StreakOptions opts;
    opts.postOptimize = true;
    opts.threads = 1;
    opts.observer = [](const StreakObservation&) {};
    const StreakResult r = runStreak(d, opts).value();
    std::ostringstream os;
    flow::writeRunReport(d, opts, r, os);
    return os.str();
}

json::Value parseDoc(const std::string& text) {
    std::string error;
    json::Value doc = json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    return doc;
}

/// Copy of the document without one top-level key.
std::string withoutKey(const json::Value& doc, const std::string& key) {
    json::Object out;
    for (const auto& [k, v] : doc.asObject().items()) {
        if (k != key) out.set(k, v);
    }
    return json::Value(std::move(out)).dump(2);
}

/// Copy of the document with one top-level key replaced.
std::string withKey(const json::Value& doc, const std::string& key,
                    json::Value value) {
    json::Object out;
    for (const auto& [k, v] : doc.asObject().items()) out.set(k, v);
    out.set(key, std::move(value));
    return json::Value(std::move(out)).dump(2);
}

bool anyProblemMentions(const flow::CheckResult& result,
                        const std::string& needle) {
    for (const std::string& problem : result.problems) {
        if (problem.find(needle) != std::string::npos) return true;
    }
    return false;
}

class ReportCheck : public ::testing::Test {
protected:
    static void SetUpTestSuite() { text_ = new std::string(freshReport()); }
    static void TearDownTestSuite() {
        delete text_;
        text_ = nullptr;
    }
    static const std::string& text() { return *text_; }

private:
    static std::string* text_;
};

std::string* ReportCheck::text_ = nullptr;

TEST_F(ReportCheck, AcceptsAGenuineReport) {
    const flow::CheckResult result = flow::checkRunReport(text(), "report");
    EXPECT_TRUE(result.ok()) << result.problems.front();
}

TEST_F(ReportCheck, TruncatedJsonIsAStructuredProblem) {
    for (const size_t keep : {0u, 1u, 40u}) {
        const std::string truncated = text().substr(0, text().size() / 2 + keep);
        const flow::CheckResult result =
            flow::checkRunReport(truncated, "report");
        EXPECT_FALSE(result.ok()) << "accepted a truncated report";
        ASSERT_FALSE(result.problems.empty());
        EXPECT_EQ(result.problems.front().rfind("report:", 0), 0u)
            << result.problems.front();
    }
}

TEST_F(ReportCheck, MissingRobustSectionIsAProblem) {
    const flow::CheckResult result =
        flow::checkRunReport(withoutKey(parseDoc(text()), "robust"), "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "\"robust\""));
}

TEST_F(ReportCheck, MissingProcessSectionIsAProblem) {
    const flow::CheckResult result = flow::checkRunReport(
        withoutKey(parseDoc(text()), "process"), "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "\"process\""));
}

TEST_F(ReportCheck, WrongSchemaVersionNamesExpectedAndActual) {
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "schemaVersion", json::Value(99)), "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "schemaVersion 99"));
    EXPECT_TRUE(anyProblemMentions(
        result,
        "expected " + std::to_string(flow::kReportSchemaVersion)));
}

TEST_F(ReportCheck, WrongSchemaStringIsAProblem) {
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "schema", json::Value("other-schema")),
        "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "other-schema"));
}

TEST_F(ReportCheck, MistypedSectionIsAProblem) {
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "counters", json::Value(3)), "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "\"counters\""));
    EXPECT_TRUE(anyProblemMentions(result, "wrong type"));
}

TEST_F(ReportCheck, RouteReportFailsWhenEcoIsRequired) {
    // `streak eco --report` appends the eco section; a plain route report
    // must fail under --eco semantics and pass without them.
    const flow::CheckResult strict =
        flow::checkRunReport(text(), "report", /*requireEco=*/true);
    EXPECT_FALSE(strict.ok());
    EXPECT_TRUE(anyProblemMentions(strict, "\"eco\""));
    EXPECT_TRUE(flow::checkRunReport(text(), "report").ok());
}

TEST_F(ReportCheck, InconsistentEcoSectionIsAProblem) {
    json::Object eco;
    eco.set("totalGroups", 10);
    eco.set("resolvedGroups", 4);
    eco.set("carriedGroups", 5);  // 4 + 5 != 10
    eco.set("resolved", json::Array{json::Value("g0"), json::Value("g1")});
    eco.set("incrementalSeconds", 0.5);
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "eco", json::Value(std::move(eco))),
        "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(
        result, "resolvedGroups + carriedGroups != totalGroups"));
    EXPECT_TRUE(
        anyProblemMentions(result, "resolved list length disagrees"));
}

TEST_F(ReportCheck, MissingSpanTreeIsAProblem) {
    const flow::CheckResult result = flow::checkRunReport(
        withKey(parseDoc(text()), "spans", json::Value(json::Array{})),
        "report");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "span tree is empty"));
}

TEST(TraceCheck, RejectsTruncatedAndUnbalanced) {
    EXPECT_FALSE(flow::checkChromeTrace("{\"traceEvents\": [", "trace").ok());

    // E with no matching B on its track.
    const char* unbalanced = R"({"traceEvents": [
        {"ph": "E", "name": "x", "pid": 0, "tid": 0, "ts": 1}]})";
    const flow::CheckResult result =
        flow::checkChromeTrace(unbalanced, "trace");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "no open B"));
}

/// Knobs of a small streak-kernel-bench document: synth1-shrunk numbers
/// for the maze and LP kernels, with the LP after side adjustable.
struct BenchKnobs {
    std::vector<std::string> designs = {"synth1-shrunk"};
    double pivots = 16.0;        ///< LP after side's ilp/lp.pivots
    double wirelength = 425.0;   ///< both after sides' wirelength
};

json::Object benchSide(const char* variant, const char* counter,
                       double count, json::Object solution) {
    json::Object counters;
    counters.set(counter, count);
    json::Object side;
    side.set("variant", variant);
    side.set("seconds", 0.001);
    side.set("counters", std::move(counters));
    side.set("solution", std::move(solution));
    return side;
}

json::Object mazeSolution(double wirelength) {
    json::Object solution;
    solution.set("routedBits", 30);
    solution.set("totalBits", 30);
    solution.set("wirelength", wirelength);
    solution.set("vias", 5);
    return solution;
}

json::Object lpSolution(double wirelength) {
    json::Object solution;
    solution.set("objective", 555);
    solution.set("routability", 1.0);
    solution.set("wirelength", wirelength);
    solution.set("totalOverflow", 0);
    solution.set("hitTimeLimit", false);
    return solution;
}

std::string benchDoc(const BenchKnobs& k) {
    json::Array kernels;
    for (const std::string& design : k.designs) {
        json::Object maze;
        maze.set("kernel", "route/maze");
        maze.set("design", design);
        maze.set("before", benchSide("dijkstra-full-grid", "route/maze.pops",
                                     66184, mazeSolution(425)));
        maze.set("after", benchSide("astar-window", "route/maze.pops", 1455,
                                    mazeSolution(k.wirelength)));
        kernels.push_back(json::Value(std::move(maze)));
        json::Object lp;
        lp.set("kernel", "ilp/lp");
        lp.set("design", design);
        lp.set("before", benchSide("legacy-bound-rows", "ilp/lp.pivots", 82,
                                   lpSolution(425)));
        lp.set("after", benchSide("bounded", "ilp/lp.pivots", k.pivots,
                                  lpSolution(k.wirelength)));
        kernels.push_back(json::Value(std::move(lp)));
    }
    json::Object mazeTotals;
    mazeTotals.set("dropPercent", 100.0 * (66184 - 1455) / 66184);
    json::Object lpTotals;
    lpTotals.set("dropPercent", 100.0 * (82 - k.pivots) / 82);
    json::Object totals;
    totals.set("maze", std::move(mazeTotals));
    totals.set("lp", std::move(lpTotals));
    json::Object doc;
    doc.set("schema", "streak-kernel-bench");
    doc.set("schemaVersion", 1);
    doc.set("kernels", std::move(kernels));
    doc.set("totals", std::move(totals));
    return json::Value(std::move(doc)).dump(2);
}

flow::CheckResult checkBench(const BenchKnobs& fresh,
                             const BenchKnobs& committed = {}) {
    return flow::checkKernelBench(benchDoc(fresh), "fresh",
                                  benchDoc(committed), "committed");
}

TEST(BenchCheck, RejectsMalformedDocuments) {
    const std::string good = benchDoc({});
    EXPECT_TRUE(
        flow::checkKernelBench(good, "fresh", good, "committed").ok());
    EXPECT_FALSE(flow::checkKernelBench("{", "fresh", good, "committed").ok());
    EXPECT_FALSE(flow::checkKernelBench("{}", "fresh", good, "committed").ok());
    EXPECT_FALSE(flow::checkKernelBench(good, "fresh", "{", "committed").ok());
    const flow::CheckResult result = flow::checkKernelBench(
        R"({"schema": "streak-kernel-bench", "schemaVersion": 1,
            "kernels": [], "totals": {}})",
        "fresh", good, "committed");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "no kernel entries"));
    // A committed file of another schema is a problem, not a skip.
    const flow::CheckResult foreign = flow::checkKernelBench(
        good, "fresh", R"({"schema": "something-else"})", "committed");
    EXPECT_FALSE(foreign.ok());
    EXPECT_TRUE(anyProblemMentions(foreign, "something-else"));
}

TEST(BenchCheck, FlagsPivotsAboveCommittedPlusTenPercent) {
    BenchKnobs fresh;
    fresh.pivots = 17.0;  // 6% above the committed 16: tolerated
    EXPECT_TRUE(checkBench(fresh).ok());
    fresh.pivots = 18.0;  // 12.5% above
    const flow::CheckResult result = checkBench(fresh);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "ilp/lp.pivots"));
}

TEST(BenchCheck, FlagsAWirelengthLoss) {
    BenchKnobs fresh;
    fresh.wirelength = 426.0;
    const flow::CheckResult result = checkBench(fresh);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "quality loss in \"wirelength\""));
    EXPECT_TRUE(anyProblemMentions(result, "frozen before side"));
}

TEST(BenchCheck, FlagsACommittedDesignMissingFromTheFreshRun) {
    BenchKnobs committed;
    committed.designs = {"synth1-shrunk", "synth2-shrunk"};
    const flow::CheckResult result = checkBench({}, committed);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "route/maze/synth2-shrunk"));
    EXPECT_TRUE(anyProblemMentions(result, "ilp/lp/synth2-shrunk"));
    // Extra fresh designs are fine.
    EXPECT_TRUE(checkBench(committed).ok());
}

TEST(BenchCheck, FlagsADropBelowThirtyPercent) {
    BenchKnobs slow;
    slow.pivots = 70.0;  // 14.6% below the frozen 82
    const flow::CheckResult result = checkBench(slow, slow);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(anyProblemMentions(result, "below the 30%"));
}

}  // namespace
}  // namespace streak
