// The benchmark's own arithmetic: percentile selection, self time,
// ratios with their base, and seed derivation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(int n) {
    std::vector<double> v;
    for (int i = 1; i <= n; ++i) v.push_back(i);
    return v;
}

TEST(Median, OddEvenAndEmpty) {
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
    // 19 samples: the median's rank is 10, leaving 9 beyond — not enough.
    EXPECT_FALSE(tailPercentile(iota(19)).found);

    // 20 samples: only the median qualifies (rank 10, 10 beyond).
    const TailPercentile p20 = tailPercentile(iota(20));
    ASSERT_TRUE(p20.found);
    EXPECT_EQ(p20.pct, 50);
    EXPECT_EQ(p20.value, 10);
    EXPECT_EQ(p20.beyond, 10);
    EXPECT_EQ(p20.count, 20);

    // 100 samples: p90 (rank 90, 10 beyond) beats p95 (5 beyond).
    const TailPercentile p100 = tailPercentile(iota(100));
    ASSERT_TRUE(p100.found);
    EXPECT_EQ(p100.pct, 90);
    EXPECT_EQ(p100.value, 90);
    EXPECT_EQ(p100.beyond, 10);

    // 1000 samples: p99 (rank 990, 10 beyond); p99.9 leaves only 1.
    const TailPercentile p1000 = tailPercentile(iota(1000));
    EXPECT_EQ(p1000.pct, 99);
    EXPECT_EQ(p1000.value, 990);
}

TEST(TailPercentile, SortsItsInput) {
    std::vector<double> v = iota(40);
    std::reverse(v.begin(), v.end());
    const TailPercentile p = tailPercentile(v);
    EXPECT_EQ(p.pct, 75);  // rank 30, 10 beyond
    EXPECT_EQ(p.value, 30);
}

TEST(NearestRank, MatchesTheDefinition) {
    const std::vector<double> v = iota(10);
    EXPECT_EQ(nearestRank(v, 50), 5);
    EXPECT_EQ(nearestRank(v, 51), 6);
    EXPECT_EQ(nearestRank(v, 100), 10);
    EXPECT_EQ(nearestRank(v, 0), 1);
}

TEST(BestOfPasses, TakesEachOperationsFastestRepetition) {
    // Two passes of three operations.
    const std::vector<double> times = {5, 1, 9, 4, 2, 10};
    EXPECT_EQ(bestOfPasses(times, 3), (std::vector<double>{4, 1, 9}));
    EXPECT_EQ(bestOfPasses({7, 8}, 2), (std::vector<double>{7, 8}));
}

TEST(Ratio, CarriesItsBase) {
    const Ratio r{3, 4};
    EXPECT_DOUBLE_EQ(r.value(), 0.75);
    EXPECT_EQ(r.describe("bits attempted"), "0.7500 (3 of 4 bits attempted)");
    // A zero base reads 0 and still prints the base.
    const Ratio none{0, 0};
    EXPECT_EQ(none.value(), 0);
    EXPECT_EQ(none.describe("bits attempted"), "0.0000 (0 of 0 bits attempted)");
}

TEST(DeriveSeed, IsDeterministicAndSeparatesStreams) {
    EXPECT_EQ(deriveSeed(7, "suite-pd", 3), deriveSeed(7, "suite-pd", 3));
    EXPECT_NE(deriveSeed(7, "suite-pd", 3), deriveSeed(7, "suite-pd", 4));
    EXPECT_NE(deriveSeed(7, "suite-pd", 3), deriveSeed(8, "suite-pd", 3));
    EXPECT_NE(deriveSeed(7, "suite-pd", 3), deriveSeed(7, "eco-chain", 3));
    // Pinned value: a change to the derivation changes every workload's
    // inputs, so it must be deliberate.
    EXPECT_EQ(deriveSeed(1, "congested-post", 0), 753517573u);
}

TEST(CoveredLength, UnionClippedToTheWindow) {
    EXPECT_DOUBLE_EQ(coveredLength({{1, 3}, {2, 5}, {7, 8}}, 0, 10), 5);
    EXPECT_DOUBLE_EQ(coveredLength({{1, 3}, {2, 5}}, 2.5, 4), 1.5);
    EXPECT_DOUBLE_EQ(coveredLength({}, 0, 10), 0);
}

TEST(SelfSeconds, SpanTimeMinusChildCoverage) {
    // op [0, 10] with children a [1, 4] and b [5, 6]; a has child c [2, 3].
    std::vector<SpanRecord> spans(4);
    spans[0] = {"op", -1, 0, 0.0, 10.0};
    spans[1] = {"core/a", 0, 0, 1.0, 4.0};
    spans[2] = {"core/c", 1, 0, 2.0, 3.0};
    spans[3] = {"post/b", 0, 0, 5.0, 6.0};
    const std::vector<double> self = selfSeconds(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 3.0 - 1.0);  // grandchild not subtracted twice
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 1.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SpanLog, NestsAndMeasures) {
    SpanLog log;
    {
        const SpanLog::Scope op(log, "op", 4);
        const SpanLog::Scope layer(log, "core/buildProblem", 4);
    }
    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[0].parent, -1);
    EXPECT_EQ(log.spans()[1].parent, 0);
    EXPECT_EQ(log.spans()[1].op, 4);
    EXPECT_GE(log.spans()[0].seconds(), log.spans()[1].seconds());
    EXPECT_EQ(layerOf(log.spans()[1].name), "core");
    EXPECT_EQ(layerOf("op"), "op");
}

TEST(SpanLog, EndOpenClosesWhatAnExceptionLeftOpen) {
    SpanLog log;
    log.begin("op", 0);
    log.begin("core/buildProblem", 0);
    log.endOpen();
    EXPECT_GE(log.spans()[0].end, 0.0);
    EXPECT_GE(log.spans()[1].end, 0.0);
    EXPECT_EQ(log.begin("op", 1), 2);
    EXPECT_EQ(log.spans()[2].parent, -1);
}

}  // namespace
}  // namespace perfbench
