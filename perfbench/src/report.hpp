// Turning a run's operations and spans into named metrics: the
// human-readable lines (every metric with its unit, every ratio with its
// base) and the final one-line JSON result.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// Part of the JSON result. Metrics that read 0 on a correct run
    /// (failed_frac, overflow) are printed but not gated.
    bool inResult = true;
};

/// Each operation's best time over the phase's whole passes, in
/// reference seconds (see speed.hpp).
[[nodiscard]] std::vector<double> bestTimes(const std::vector<OpOutcome>& ops,
                                            int passOps);

/// Operations of one pass ÷ the sum of their best times.
[[nodiscard]] double routesPerSecond(const std::vector<OpOutcome>& ops,
                                     int passOps);

/// End-to-end metrics of an untraced phase of whole passes. Timings use
/// each operation's best time over the passes; quality metrics cover the
/// first pass (the workload's design set or delta chains), so none of
/// them depends on how many passes the time budget allowed.
[[nodiscard]] std::vector<Metric> endToEndMetrics(
    const std::vector<OpOutcome>& ops, int passOps,
    const std::vector<double>& setupSeconds, std::ostream& os);

/// Per-layer metrics of the traced pass: self time per layer call from
/// the spans, work counts from `counts`, the shares of operation wall
/// time, and the tracing overhead against the untraced phase.
[[nodiscard]] std::vector<Metric> perLayerMetrics(
    const SpanLog& log, const LayerCounts& counts,
    const std::vector<OpOutcome>& untraced,
    const std::vector<OpOutcome>& traced, int passOps, std::ostream& os);

/// Print `metrics` as "name = value unit" lines.
void printMetrics(const std::vector<Metric>& metrics, std::ostream& os);

/// The final result line: {"correct", "attempted", "failed", "metrics"}
/// with every value at full precision.
[[nodiscard]] std::string resultJson(bool correct, long attempted,
                                     long failed,
                                     const std::vector<Metric>& metrics);

/// Process peak resident set size in MB (getrusage).
[[nodiscard]] double peakRssMb();

}  // namespace perfbench
