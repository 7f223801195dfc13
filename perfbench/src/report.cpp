#include "report.hpp"

#include <sys/resource.h>

#include <charconv>
#include <map>
#include <string_view>

#include "speed.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
    char buf[64];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

/// Span name -> per-layer seconds metric it feeds. "op" spans feed the
/// unattributed time (operation wall time outside every layer span).
const std::map<std::string_view, std::string_view>& spanMetrics() {
    static const std::map<std::string_view, std::string_view> m = {
        {"io/readDesign", "io.read_s"},
        {"core/buildProblem", "core.build_s"},
        {"core/solvePrimalDual", "core.pd_s"},
        {"core/materialize", "core.materialize_s"},
        {"core/analyzeDistances", "core.distance_s"},
        {"core/evaluate", "core.evaluate_s"},
        {"ilp/solveIlpRouting", "ilp.solve_s"},
        {"post/clusterAndRoute", "post.cluster_s"},
        {"post/refineDistances", "post.refine_s"},
        {"eco/readCheckpointBuffer", "eco.ckpt_read_s"},
        {"eco/runEco", "eco.run_s"},
        {"eco/makeCheckpoint", "eco.ckpt_write_s"},
        {"eco/writeCheckpoint", "eco.ckpt_write_s"},
        {"op", "trace.unattributed_s"},
    };
    return m;
}

}  // namespace

std::vector<double> bestTimes(const std::vector<OpOutcome>& ops,
                              int passOps) {
    std::vector<double> times;
    for (const OpOutcome& op : ops) {
        times.push_back(referenceSeconds(op.seconds, op.kernel));
    }
    return bestOfPasses(times, static_cast<size_t>(passOps));
}

double routesPerSecond(const std::vector<OpOutcome>& ops, int passOps) {
    double total = 0.0;
    for (const double t : bestTimes(ops, passOps)) total += t;
    return total > 0.0 ? passOps / total : 0.0;
}

std::vector<Metric> endToEndMetrics(const std::vector<OpOutcome>& ops,
                                    int passOps,
                                    const std::vector<double>& setupSeconds,
                                    std::ostream& os) {
    std::vector<double> raw;
    long failed = 0;
    for (const OpOutcome& op : ops) {
        raw.push_back(op.seconds);
        if (!op.failure.empty()) ++failed;
    }
    const std::vector<double> best = bestTimes(ops, passOps);
    const TailPercentile tail = tailPercentile(best);
    os << "# route_s: best of " << ops.size() / static_cast<size_t>(passOps)
       << " passes for each of " << best.size() << " operations: p50 "
       << number(median(best)) << " s";
    if (tail.found) {
        os << ", p" << tail.pct << " " << number(tail.value) << " s ("
           << tail.beyond << " samples beyond)";
    } else {
        os << ", no percentile has 10 samples beyond it";
    }
    os << " (reference seconds)\n";
    std::vector<double> kernels;
    for (const OpOutcome& op : ops) kernels.push_back(op.kernel);
    std::vector<double> rawBest = bestOfPasses(raw, static_cast<size_t>(passOps));
    double rawTotal = 0.0;
    for (const double t : rawBest) rawTotal += t;
    os << "# wall seconds: best-of-passes p50 " << number(median(rawBest))
       << " s, routes_per_s " << number(passOps / rawTotal)
       << "; calibration kernel median " << number(median(kernels))
       << " s over the run\n";
    os << "# setup_s samples:";
    for (const double s : setupSeconds) os << ' ' << number(s);
    os << '\n';

    Ratio routability;
    Ratio avgReg;
    double wirelength = 0.0;
    double vio = 0.0;
    double overflow = 0.0;
    for (size_t i = 0; i < static_cast<size_t>(passOps); ++i) {
        if (!ops[i].haveMetrics) continue;
        const streak::Metrics& m = ops[i].metrics;
        routability.num += m.routability;
        routability.den += 1;
        avgReg.num += m.avgRegularity;
        avgReg.den += 1;
        wirelength += static_cast<double>(m.wirelength);
        vio += ops[i].vioDst;
        overflow += static_cast<double>(m.totalOverflow);
    }
    const Ratio failedFrac{static_cast<double>(failed),
                           static_cast<double>(ops.size())};
    os << "# failed_frac " << failedFrac.describe("operations") << '\n';
    os << "# quality metrics over the first pass (" << passOps
       << " operations)\n";

    return {
        {"routes_per_s", routesPerSecond(ops, passOps), "1/s"},
        {"route_s_p50", median(best), "s"},
        {"setup_s", median(setupSeconds), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"failed_frac", failedFrac.value(), "ratio", false},
        {"routability", routability.value(), "ratio"},
        {"wirelength", wirelength, "G-cells"},
        {"avg_reg", avgReg.value(), "ratio"},
        {"vio_dst", vio, "groups"},
        {"overflow", overflow, "tracks", false},
    };
}

std::vector<Metric> perLayerMetrics(const SpanLog& log,
                                    const LayerCounts& counts,
                                    const std::vector<OpOutcome>& untraced,
                                    const std::vector<OpOutcome>& traced,
                                    int passOps, std::ostream& os) {
    const std::vector<SpanRecord>& spans = log.spans();
    const std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> seconds;
    std::map<std::string, double> layerSeconds;
    double opSeconds = 0.0;
    for (const auto& [span, metric] : spanMetrics()) {
        seconds[std::string(metric)] = 0.0;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        const auto it = spanMetrics().find(spans[i].name);
        if (it != spanMetrics().end()) seconds[std::string(it->second)] += self[i];
        if (spans[i].name == "op") {
            opSeconds += spans[i].seconds();
        } else {
            layerSeconds[std::string(layerOf(spans[i].name))] += self[i];
        }
    }

    std::vector<Metric> out;
    const auto secondsMetric = [&](const char* name) {
        out.push_back({name, seconds[name], "s"});
    };
    const auto count = [&](const char* name) {
        out.push_back({name, counts.get(name), "count"});
    };
    const auto ratio = [&](const char* name, const Ratio& r, const char* unit) {
        os << "# " << name << " = " << r.describe(unit) << '\n';
        out.push_back({name, r.value(), "ratio"});
    };

    secondsMetric("io.read_s");

    secondsMetric("core.build_s");
    count("core.build.objects");
    count("core.build.candidates");
    count("core.build.pair_blocks");
    secondsMetric("core.pd_s");
    count("core.pd.iterations");
    secondsMetric("core.materialize_s");
    secondsMetric("core.distance_s");
    secondsMetric("core.evaluate_s");

    secondsMetric("ilp.solve_s");
    count("ilp.components");
    count("ilp.bnb_nodes");
    count("ilp.lp_solves");
    count("ilp.lp_pivots");
    count("ilp.lp_warm_starts");
    count("ilp.lp_warm_fallbacks");
    ratio("ilp.lp_warm_ratio",
          {counts.get("ilp.lp_warm_starts"),
           counts.get("ilp.lp_warm_starts") + counts.get("ilp.lp_warm_fallbacks")},
          "warm-start attempts");

    secondsMetric("post.cluster_s");
    count("post.cluster.bits_attempted");
    count("post.cluster.bits_routed");
    count("post.cluster.clusters_formed");
    ratio("post.cluster.routed_ratio",
          {counts.get("post.cluster.bits_routed"),
           counts.get("post.cluster.bits_attempted")},
          "bits attempted");
    secondsMetric("post.refine_s");
    count("post.refine.pins_considered");
    count("post.refine.pins_fixed");
    count("post.refine.added_wl");
    ratio("post.refine.fixed_ratio",
          {counts.get("post.refine.pins_fixed"),
           counts.get("post.refine.pins_considered")},
          "pins considered");

    secondsMetric("eco.ckpt_read_s");
    secondsMetric("eco.run_s");
    secondsMetric("eco.ckpt_write_s");
    const double writes = counts.get("eco.ckpt_writes");
    out.push_back({"eco.ckpt_bytes",
                   writes > 0.0 ? counts.get("eco.ckpt_bytes") / writes : 0.0,
                   "bytes"});
    count("eco.total_groups");
    ratio("eco.resolved_frac",
          {counts.get("eco.resolved_groups"), counts.get("eco.total_groups")},
          "groups");
    for (const char* stage : {"eco.sub.build_s", "eco.sub.solve_s",
                              "eco.sub.distance_s", "eco.sub.post_s"}) {
        out.push_back({stage, counts.get(stage), "s"});
    }

    // Shares of operation wall time, per layer (self time of its spans).
    out.push_back({"trace.ops", static_cast<double>(traced.size()), "count"});
    out.push_back({"trace.op_s", opSeconds, "s"});
    secondsMetric("trace.unattributed_s");
    for (const char* layer : {"io", "core", "ilp", "post", "eco"}) {
        const Ratio share{layerSeconds[layer], opSeconds};
        os << "# share of operation wall time, " << layer << ": "
           << share.describe("s") << '\n';
        out.push_back({std::string("share.") + layer, share.value(), "ratio"});
    }
    os << "# share of operation wall time, unattributed: "
       << Ratio{seconds["trace.unattributed_s"], opSeconds}.describe("s")
       << '\n';

    const double untracedRps = routesPerSecond(untraced, passOps);
    const double tracedRps = routesPerSecond(traced, passOps);
    out.push_back({"trace.untraced_routes_per_s", untracedRps, "1/s"});
    out.push_back({"trace.traced_routes_per_s", tracedRps, "1/s"});
    const Ratio overhead{untracedRps - tracedRps, untracedRps};
    os << "# trace.overhead_frac = " << number(overhead.value())
       << " (traced " << number(tracedRps) << " vs untraced "
       << number(untracedRps) << " routes/s)\n";
    out.push_back({"trace.overhead_frac", overhead.value(), "ratio"});
    return out;
}

void printMetrics(const std::vector<Metric>& metrics, std::ostream& os) {
    for (const Metric& m : metrics) {
        os << "# " << m.name << " = " << number(m.value) << ' ' << m.unit
           << (m.inResult ? "" : "  (not gated: reads 0 on a correct run)")
           << '\n';
    }
}

std::string resultJson(bool correct, long attempted, long failed,
                       const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics) {
        if (!m.inResult) continue;
        out += first ? "" : ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
