// The benchmark's own arithmetic: sample statistics, ratios that carry
// their base, and seed derivation. Kept free of any routing code so
// tests/stats_test.cpp can pin it down in isolation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of a sample: the middle value, or the mean of the two middle
/// values for an even count. 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(pct / 100 * n). `sorted` must be non-empty.
[[nodiscard]] double nearestRank(const std::vector<double>& sorted,
                                 double pct);

/// The highest percentile that still has at least `minBeyond` samples
/// above its nearest-rank sample, chosen from a fixed ladder
/// (99.9, 99, 95, 90, 75, 50). `found` is false when even the median
/// has fewer than `minBeyond` samples beyond it.
struct TailPercentile {
    bool found = false;
    double pct = 0.0;
    double value = 0.0;
    long beyond = 0;  ///< samples strictly above the percentile's rank
    long count = 0;   ///< sample size
};
[[nodiscard]] TailPercentile tailPercentile(std::vector<double> values,
                                            long minBeyond = 10);

/// Best time of each operation over whole passes: best[k] is the
/// minimum of times[p * passOps + k] over every pass p. Run-to-run noise
/// on a shared host only ever slows an operation down, so the fastest of
/// its repetitions is the steadiest estimate of its cost. `times` must
/// hold whole passes.
[[nodiscard]] std::vector<double> bestOfPasses(const std::vector<double>& times,
                                               size_t passOps);

/// A ratio that always travels with its base: `num` of `den`. value()
/// is 0 when the base is 0 (nothing attempted, nothing to report).
struct Ratio {
    double num = 0.0;
    double den = 0.0;
    [[nodiscard]] double value() const { return den > 0.0 ? num / den : 0.0; }
    /// "0.912 (52 of 57 bits)" — the printed form of every ratio.
    [[nodiscard]] std::string describe(std::string_view unit) const;
};

/// Deterministic 32-bit seed for item `index` of stream `stream` under
/// the workload seed (SplitMix64 over an FNV-1a hash of the stream
/// name). Same arguments, same seed, on every platform.
[[nodiscard]] std::uint32_t deriveSeed(std::uint64_t workloadSeed,
                                       std::string_view stream,
                                       std::uint64_t index);

/// A closed time interval in seconds.
struct Interval {
    double start = 0.0;
    double end = 0.0;
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
[[nodiscard]] double coveredLength(std::vector<Interval> intervals, double lo,
                                   double hi);

}  // namespace perfbench
