#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n % 2 == 1) return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// 1-based nearest rank of `pct` in a sample of `n`.
long rankOf(double pct, long n) {
    const long rank = static_cast<long>(std::ceil(pct / 100.0 * n - 1e-9));
    return std::clamp(rank, 1L, n);
}

}  // namespace

double nearestRank(const std::vector<double>& sorted, double pct) {
    const long n = static_cast<long>(sorted.size());
    return sorted[static_cast<size_t>(rankOf(pct, n) - 1)];
}

TailPercentile tailPercentile(std::vector<double> values, long minBeyond) {
    TailPercentile out;
    out.count = static_cast<long>(values.size());
    if (values.empty()) return out;
    std::sort(values.begin(), values.end());
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const long beyond = out.count - rankOf(pct, out.count);
        if (beyond >= minBeyond) {
            out.found = true;
            out.pct = pct;
            out.value = nearestRank(values, pct);
            out.beyond = beyond;
            return out;
        }
    }
    return out;
}

std::vector<double> bestOfPasses(const std::vector<double>& times,
                                 size_t passOps) {
    std::vector<double> best(times.begin(),
                             times.begin() + static_cast<long>(
                                                 std::min(passOps, times.size())));
    for (size_t i = passOps; i < times.size(); ++i) {
        best[i % passOps] = std::min(best[i % passOps], times[i]);
    }
    return best;
}

std::string Ratio::describe(std::string_view unit) const {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.4f (%.6g of %.6g %.*s)", value(), num,
                  den, static_cast<int>(unit.size()), unit.data());
    return buf;
}

std::uint32_t deriveSeed(std::uint64_t workloadSeed, std::string_view stream,
                         std::uint64_t index) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
    for (const char c : stream) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    std::uint64_t z = h ^ (workloadSeed * 0x9E3779B97F4A7C15ULL) ^
                      (index + 0x632BE59BD9B4E019ULL);
    // SplitMix64 finalizer.
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<std::uint32_t>(z >> 32);
}

double coveredLength(std::vector<Interval> intervals, double lo, double hi) {
    for (Interval& iv : intervals) {
        iv.start = std::max(iv.start, lo);
        iv.end = std::min(iv.end, hi);
    }
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                  return a.start < b.start;
              });
    double total = 0.0;
    double reach = lo;
    for (const Interval& iv : intervals) {
        const double from = std::max(iv.start, reach);
        if (iv.end > from) {
            total += iv.end - from;
            reach = iv.end;
        }
    }
    return total;
}

}  // namespace perfbench
