#include "flow/report_check.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flow/report.hpp"
#include "flow/streak.hpp"
#include "obs/json.hpp"

namespace streak::flow {

namespace {

using obs::json::Kind;
using obs::json::Value;

/// Problem accumulator threaded through one document check.
class Checker {
public:
    void fail(const std::string& message) { result_.problems.push_back(message); }
    [[nodiscard]] CheckResult take() { return std::move(result_); }

private:
    CheckResult result_;
};

/// Parse the document text; a syntax error (truncated file, stray bytes)
/// becomes one structured problem and a null value.
Value parseText(std::string_view text, const std::string& where,
                Checker* check) {
    std::string error;
    const Value doc = obs::json::parse(std::string(text), &error);
    if (doc.isNull() && !error.empty()) check->fail(where + ": " + error);
    return doc;
}

/// The key must exist and have the expected kind.
const Value* requireField(const Value& obj, const std::string& key, Kind kind,
                          const std::string& where, Checker* check) {
    const Value* v = obj.find(key);
    if (v == nullptr) {
        check->fail(where + ": missing field \"" + key + "\"");
        return nullptr;
    }
    if (v->kind() != kind) {
        check->fail(where + ": field \"" + key + "\" has the wrong type");
        return nullptr;
    }
    return v;
}

void checkSpanTree(const Value& span, const std::string& where,
                   Checker* check) {
    requireField(span, "name", Kind::String, where, check);
    requireField(span, "track", Kind::Number, where, check);
    requireField(span, "startSeconds", Kind::Number, where, check);
    const Value* seconds =
        requireField(span, "seconds", Kind::Number, where, check);
    if (seconds != nullptr && seconds->asNumber() < 0.0) {
        check->fail(where + ": negative span duration");
    }
    if (const Value* children = span.find("children")) {
        if (children->kind() != Kind::Array) {
            check->fail(where + ": \"children\" is not an array");
            return;
        }
        for (size_t i = 0; i < children->asArray().size(); ++i) {
            checkSpanTree(children->asArray()[i],
                          where + "/child[" + std::to_string(i) + "]", check);
        }
    }
}

/// The "process" section: host facts whose values are nondeterministic,
/// so only shape and sign are checked.
void checkProcessSection(const Value& doc, const std::string& where,
                         Checker* check) {
    const Value* process =
        requireField(doc, "process", Kind::Object, where, check);
    if (process == nullptr) return;
    const Value* rss = requireField(*process, "peakRssKb", Kind::Number,
                                    where + ":process", check);
    if (rss != nullptr && rss->asNumber() < 0.0) {
        check->fail(where + ":process: negative peakRssKb");
    }
    requireField(*process, "hostname", Kind::String, where + ":process",
                 check);
    const Value* threads = requireField(*process, "hardwareThreads",
                                        Kind::Number, where + ":process",
                                        check);
    if (threads != nullptr && threads->asNumber() < 1.0) {
        check->fail(where + ":process: hardwareThreads below 1");
    }
}

/// The "eco" section `streak eco --report` appends: the group counts of
/// the re-route (every group is re-solved) and its wall time.
void checkEcoSection(const Value& doc, const std::string& where,
                     bool required, Checker* check) {
    const Value* eco = doc.find("eco");
    if (eco == nullptr) {
        if (required) check->fail(where + ": missing field \"eco\"");
        return;
    }
    if (eco->kind() != Kind::Object) {
        check->fail(where + ": field \"eco\" has the wrong type");
        return;
    }
    const std::string at = where + ":eco";
    const Value* total =
        requireField(*eco, "totalGroups", Kind::Number, at, check);
    const Value* resolved =
        requireField(*eco, "resolvedGroups", Kind::Number, at, check);
    requireField(*eco, "seconds", Kind::Number, at, check);
    if (total != nullptr && resolved != nullptr &&
        resolved->asNumber() != total->asNumber()) {
        check->fail(at + ": resolvedGroups != totalGroups");
    }
}

void checkReportDoc(const Value& doc, const std::string& where,
                    bool requireEco, Checker* check) {
    if (doc.kind() != Kind::Object) {
        if (!doc.isNull()) check->fail(where + ": top level is not an object");
        return;
    }
    const Value* schema =
        requireField(doc, "schema", Kind::String, where, check);
    if (schema != nullptr && schema->asString() != kReportSchema) {
        check->fail(where + ": schema is \"" + schema->asString() +
                    "\", expected \"" + kReportSchema + "\"");
    }
    const Value* version =
        requireField(doc, "schemaVersion", Kind::Number, where, check);
    if (version != nullptr &&
        static_cast<int>(version->asNumber()) != kReportSchemaVersion) {
        check->fail(where + ": unsupported schemaVersion " +
                    std::to_string(static_cast<int>(version->asNumber())) +
                    " (expected " + std::to_string(kReportSchemaVersion) +
                    ")");
    }
    requireField(doc, "design", Kind::Object, where, check);
    requireField(doc, "options", Kind::Object, where, check);
    requireField(doc, "metrics", Kind::Object, where, check);
    const Value* robust =
        requireField(doc, "robust", Kind::Object, where, check);
    if (robust != nullptr) {
        requireField(*robust, "deadlineSeconds", Kind::Number,
                     where + ":robust", check);
        requireField(*robust, "degraded", Kind::Bool, where + ":robust",
                     check);
        const Value* rungs = requireField(*robust, "degradations", Kind::Array,
                                          where + ":robust", check);
        if (rungs != nullptr) {
            for (size_t i = 0; i < rungs->asArray().size(); ++i) {
                const std::string at =
                    where + ":robust/degradation[" + std::to_string(i) + "]";
                const Value& rung = rungs->asArray()[i];
                requireField(rung, "stage", Kind::String, at, check);
                requireField(rung, "rung", Kind::String, at, check);
                requireField(rung, "message", Kind::String, at, check);
            }
        }
    }
    checkProcessSection(doc, where, check);
    checkEcoSection(doc, where, requireEco, check);
    requireField(doc, "counters", Kind::Object, where, check);
    requireField(doc, "histograms", Kind::Object, where, check);
    const Value* spans = requireField(doc, "spans", Kind::Array, where, check);
    if (spans == nullptr) return;
    if (spans->asArray().empty()) {
        check->fail(where + ": span tree is empty");
        return;
    }
    bool haveRun = false;
    for (const Value& root : spans->asArray()) {
        const Value* name = root.find("name");
        if (name != nullptr && name->kind() == Kind::String &&
            name->asString() == stage::kRun) {
            haveRun = true;
        }
    }
    if (!haveRun) {
        check->fail(where + ": no root span named \"" +
                    std::string(stage::kRun) + "\"");
    }
    for (size_t i = 0; i < spans->asArray().size(); ++i) {
        checkSpanTree(spans->asArray()[i],
                      where + ":span[" + std::to_string(i) + "]", check);
    }
}

void checkTraceDoc(const Value& doc, const std::string& where,
                   Checker* check) {
    if (doc.isNull()) return;
    const Value* events =
        requireField(doc, "traceEvents", Kind::Array, where, check);
    if (events == nullptr) return;

    // Per-(pid, tid) stack of open B event names.
    std::map<std::pair<int, int>, std::vector<std::string>> open;
    int durations = 0;
    for (size_t i = 0; i < events->asArray().size(); ++i) {
        const Value& ev = events->asArray()[i];
        const std::string at = where + ":event[" + std::to_string(i) + "]";
        const Value* ph = requireField(ev, "ph", Kind::String, at, check);
        const Value* name = requireField(ev, "name", Kind::String, at, check);
        const Value* pid = requireField(ev, "pid", Kind::Number, at, check);
        const Value* tid = requireField(ev, "tid", Kind::Number, at, check);
        if (ph == nullptr || name == nullptr || pid == nullptr ||
            tid == nullptr) {
            continue;
        }
        const std::pair<int, int> track{static_cast<int>(pid->asNumber()),
                                        static_cast<int>(tid->asNumber())};
        if (ph->asString() == "M") continue;  // metadata (thread_name)
        if (ph->asString() != "B" && ph->asString() != "E") {
            check->fail(at + ": unexpected phase \"" + ph->asString() + "\"");
            continue;
        }
        requireField(ev, "ts", Kind::Number, at, check);
        ++durations;
        if (ph->asString() == "B") {
            open[track].push_back(name->asString());
        } else {
            auto& stack = open[track];
            if (stack.empty()) {
                check->fail(at + ": E event with no open B on its track");
            } else if (stack.back() != name->asString()) {
                check->fail(at + ": E \"" + name->asString() +
                            "\" does not match open B \"" + stack.back() +
                            "\"");
                stack.pop_back();
            } else {
                stack.pop_back();
            }
        }
    }
    for (const auto& [track, stack] : open) {
        if (!stack.empty()) {
            check->fail(where + ": track " + std::to_string(track.first) +
                        "/" + std::to_string(track.second) + " has " +
                        std::to_string(stack.size()) +
                        " unclosed B event(s)");
        }
    }
    if (durations == 0) check->fail(where + ": no duration events");
}

/// One side (before / after) of a kernel-bench entry.
const Value* checkBenchSide(const Value& entry, const std::string& key,
                            const std::string& where, Checker* check) {
    const Value* side = requireField(entry, key, Kind::Object, where, check);
    if (side == nullptr) return nullptr;
    requireField(*side, "variant", Kind::String, where + "/" + key, check);
    requireField(*side, "seconds", Kind::Number, where + "/" + key, check);
    requireField(*side, "counters", Kind::Object, where + "/" + key, check);
    requireField(*side, "solution", Kind::Object, where + "/" + key, check);
    return side;
}

/// A solution field every side of a kernel must carry. `loss` is +1
/// when a higher value is a quality loss, -1 when a lower one is, and 0
/// for bookkeeping fields.
struct SolutionField {
    const char* name;
    int loss;
};

/// What the bench knows about each kernel: its headline work counter
/// and its solution fields.
struct BenchKernel {
    const char* name;
    const char* hotCounter;
    std::vector<SolutionField> solution;
};

const std::vector<BenchKernel>& benchKernels() {
    static const std::vector<BenchKernel> kernels = {
        {"route/maze", "route/maze.pops",
         {{"routedBits", -1}, {"totalBits", 0}, {"wirelength", 1},
          {"vias", 1}}},
        {"ilp/lp", "ilp/lp.pivots",
         {{"objective", 1}, {"routability", -1}, {"wirelength", 1},
          {"totalOverflow", 1}, {"hitTimeLimit", 1}}}};
    return kernels;
}

const BenchKernel* benchKernel(const Value& entry) {
    const Value* name = entry.find("kernel");
    if (name == nullptr || name->kind() != Kind::String) return nullptr;
    for (const BenchKernel& kernel : benchKernels()) {
        if (name->asString() == kernel.name) return &kernel;
    }
    return nullptr;
}

/// `side`'s section.key as a number; NaN when absent or mistyped (shape
/// problems are reported by the shape checks).
double benchNumber(const Value& side, const char* section, const char* key) {
    const Value* obj = side.find(section);
    const Value* v = obj != nullptr ? obj->find(key) : nullptr;
    if (v == nullptr) return std::nan("");
    if (v->kind() == Kind::Bool) return v->asBool() ? 1.0 : 0.0;
    return v->kind() == Kind::Number ? v->asNumber() : std::nan("");
}

/// `after` must agree with the reference side on every solution field
/// (routed bits, wirelength, vias, objective, ...), and both must carry
/// the kernel's fields: the kernel rewrites are required to be
/// outcome-preserving, not just faster.
void checkBenchSolutions(const BenchKernel& kernel, const Value& reference,
                         const Value& after, const std::string& what,
                         const std::string& where, Checker* check) {
    for (const SolutionField& field : kernel.solution) {
        if (std::isnan(benchNumber(reference, "solution", field.name)) ||
            std::isnan(benchNumber(after, "solution", field.name))) {
            check->fail(where + ": solution field \"" + field.name +
                        "\" missing or mistyped");
        }
    }
    const Value* fields = reference.find("solution");
    if (fields == nullptr || fields->kind() != Kind::Object) return;
    for (const auto& [key, value] : fields->asObject().items()) {
        const double want = benchNumber(reference, "solution", key.c_str());
        const double got = benchNumber(after, "solution", key.c_str());
        if (!std::isnan(want) && !(std::abs(want - got) <= 1e-6)) {
            check->fail(where + ": after side disagrees with " + what +
                        " on solution field \"" + key + "\"");
        }
    }
}

/// Total drop of a kernel's headline counter, from the totals section.
void checkBenchDrop(const Value& totals, const std::string& kernel,
                    const std::string& where, Checker* check) {
    const Value* section =
        requireField(totals, kernel, Kind::Object, where + ":totals", check);
    if (section == nullptr) return;
    const Value* drop = requireField(*section, "dropPercent", Kind::Number,
                                     where + ":totals/" + kernel, check);
    if (drop != nullptr && drop->asNumber() < 30.0) {
        check->fail(where + ": " + kernel + " counter drop is " +
                    std::to_string(drop->asNumber()) +
                    "%, below the 30% performance contract");
    }
}

/// Shape, per-entry before == after solutions and the totals' drop
/// contract. Returns the well-formed entries keyed "kernel/design".
std::map<std::string, const Value*> checkBenchDoc(const Value& doc,
                                                  const std::string& where,
                                                  Checker* check) {
    std::map<std::string, const Value*> entries;
    if (doc.kind() != Kind::Object) {
        if (!doc.isNull()) check->fail(where + ": top level is not an object");
        return entries;
    }
    const Value* schema =
        requireField(doc, "schema", Kind::String, where, check);
    if (schema != nullptr && schema->asString() != "streak-kernel-bench") {
        check->fail(where + ": schema is \"" + schema->asString() +
                    "\", expected \"streak-kernel-bench\"");
    }
    const Value* version =
        requireField(doc, "schemaVersion", Kind::Number, where, check);
    if (version != nullptr && static_cast<int>(version->asNumber()) != 1) {
        check->fail(where + ": unsupported schemaVersion");
    }
    const Value* kernels =
        requireField(doc, "kernels", Kind::Array, where, check);
    if (kernels != nullptr) {
        if (kernels->asArray().empty()) {
            check->fail(where + ": no kernel entries");
        }
        for (size_t i = 0; i < kernels->asArray().size(); ++i) {
            const Value& entry = kernels->asArray()[i];
            const std::string at =
                where + ":kernel[" + std::to_string(i) + "]";
            const Value* kernelName =
                requireField(entry, "kernel", Kind::String, at, check);
            const Value* design =
                requireField(entry, "design", Kind::String, at, check);
            const Value* before = checkBenchSide(entry, "before", at, check);
            const Value* after = checkBenchSide(entry, "after", at, check);
            const BenchKernel* kernel = benchKernel(entry);
            if (kernelName != nullptr && kernel == nullptr) {
                check->fail(at + ": unknown kernel \"" +
                            kernelName->asString() + "\"");
            }
            if (kernel == nullptr || design == nullptr || before == nullptr ||
                after == nullptr) {
                continue;
            }
            checkBenchSolutions(*kernel, *before, *after, "the before side",
                                at, check);
            entries[kernel->name + ("/" + design->asString())] = &entry;
        }
    }
    const Value* totals =
        requireField(doc, "totals", Kind::Object, where, check);
    if (totals != nullptr) {
        checkBenchDrop(*totals, "maze", where, check);
        checkBenchDrop(*totals, "lp", where, check);
    }
    return entries;
}

/// Headroom of a fresh hot counter (maze pops, LP pivots) over the
/// committed after side: unrelated code motion may shift it a little, a
/// real regression moves it more.
constexpr double kBenchCounterGrowth = 0.10;

/// Fresh against committed, per committed (kernel, design): the entry is
/// present, its after solution equals the frozen before side, its hot
/// counter is at most kBenchCounterGrowth above the committed after side,
/// and its after solution loses no quality against the committed after.
void checkBenchAgainstCommitted(
    const std::map<std::string, const Value*>& fresh,
    const std::map<std::string, const Value*>& committed,
    const std::string& where, Checker* check) {
    for (const auto& [key, entry] : committed) {
        const std::string at = where + ":" + key;
        const auto it = fresh.find(key);
        if (it == fresh.end()) {
            check->fail(at + ": missing (committed in the baseline)");
            continue;
        }
        const BenchKernel& kernel = *benchKernel(*entry);
        const Value& base = *entry->find("after");
        const Value& after = *it->second->find("after");
        checkBenchSolutions(kernel, *entry->find("before"), after,
                            "the frozen before side", at, check);
        const double baseHot = benchNumber(base, "counters", kernel.hotCounter);
        const double hot = benchNumber(after, "counters", kernel.hotCounter);
        if (!(hot <= baseHot * (1.0 + kBenchCounterGrowth))) {
            std::ostringstream msg;
            msg << at << ": " << kernel.hotCounter << ' ' << hot
                << " is more than " << 100.0 * kBenchCounterGrowth
                << "% above the committed " << baseHot;
            check->fail(msg.str());
        }
        for (const SolutionField& field : kernel.solution) {
            if (field.loss * (benchNumber(after, "solution", field.name) -
                              benchNumber(base, "solution", field.name)) >
                1e-9) {
                check->fail(at + ": quality loss in \"" + field.name +
                            "\" against the committed after side");
            }
        }
    }
}

}  // namespace

CheckResult checkRunReport(std::string_view text, const std::string& where,
                           bool requireEco) {
    Checker check;
    const Value doc = parseText(text, where, &check);
    checkReportDoc(doc, where, requireEco, &check);
    return check.take();
}

CheckResult checkChromeTrace(std::string_view text, const std::string& where) {
    Checker check;
    const Value doc = parseText(text, where, &check);
    checkTraceDoc(doc, where, &check);
    return check.take();
}

CheckResult checkKernelBench(std::string_view fresh,
                             const std::string& freshWhere,
                             std::string_view committed,
                             const std::string& committedWhere) {
    Checker check;
    const Value freshDoc = parseText(fresh, freshWhere, &check);
    const Value committedDoc = parseText(committed, committedWhere, &check);
    checkBenchAgainstCommitted(checkBenchDoc(freshDoc, freshWhere, &check),
                               checkBenchDoc(committedDoc, committedWhere,
                                             &check),
                               freshWhere, &check);
    return check.take();
}

}  // namespace streak::flow
