// Differential oracle for candidate generation: the production build (one
// shared shape per backbone, layer-local edge demand shifted per layer
// pair, sort + run-length counting) must reproduce the per-layer-pair
// std::map expansion of tests/candidate_oracle.hpp field by field and in
// the same candidate order, on shrunk and full synth suites and on seeded
// random designs with blockage walls. Also pins the build/cand.* work
// counters and the build/* spans of a traced run.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>

#include "candidate_oracle.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "obs/session.hpp"

namespace streak {
namespace {

void expectSameCandidate(const testoracle::OracleCandidate& want,
                         const RouteCandidate& got) {
    EXPECT_EQ(want.backboneId, got.backboneId);
    EXPECT_TRUE(want.backbone == got.backbone());
    ASSERT_EQ(want.bitTopologies.size(), got.bitTopologies().size());
    for (size_t k = 0; k < want.bitTopologies.size(); ++k) {
        EXPECT_TRUE(want.bitTopologies[k] == got.bitTopologies()[k])
            << "bit " << k;
    }
    EXPECT_EQ(want.hLayer, got.hLayer);
    EXPECT_EQ(want.vLayer, got.vLayer);
    EXPECT_EQ(want.cost, got.cost);  // bit-identical, not approximate
    EXPECT_EQ(want.wirelength2d, got.wirelength2d());
    EXPECT_EQ(want.viaCount, got.viaCount());
    EXPECT_EQ(want.edgeUse, got.edgeUse);
    EXPECT_EQ(want.viaUse, got.viaUse());
}

/// Compare every object's candidates both ways; returns the number of
/// candidates compared.
size_t expectBuildMatchesOracle(const Design& design,
                                const StreakOptions& opts = {}) {
    size_t compared = 0;
    const std::vector<RoutingObject> objects = identifyObjects(design);
    for (size_t i = 0; i < objects.size(); ++i) {
        SCOPED_TRACE("object " + std::to_string(i));
        const auto want =
            testoracle::generateCandidatesOracle(design, objects[i], opts);
        const auto got = generateCandidates(design, objects[i], opts);
        EXPECT_EQ(want.size(), got.size());
        if (want.size() != got.size()) continue;
        for (size_t j = 0; j < want.size(); ++j) {
            SCOPED_TRACE("candidate " + std::to_string(j));
            expectSameCandidate(want[j], got[j]);
        }
        compared += want.size();
    }
    return compared;
}

/// A small congested design with two vertical blockage walls, each
/// spanning every layer except for one gap; optionally via-limited.
Design walledDesign(std::uint32_t seed, bool viaLimited) {
    gen::SuiteSpec spec;
    spec.name = "walled" + std::to_string(seed);
    spec.gridWidth = 32;
    spec.gridHeight = 32;
    spec.numLayers = 4;
    spec.capacity = 2;
    spec.numGroups = 10;
    spec.minGroupWidth = 4;
    spec.maxGroupWidth = 12;
    spec.maxPins = 4;
    spec.numBlockages = 4;
    spec.viaCapacity = viaLimited ? 3 : -1;
    spec.seed = seed;
    Design d = gen::generate(spec);
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> col(6, spec.gridWidth - 8);
    std::uniform_int_distribution<int> gapAt(4, spec.gridHeight - 8);
    for (int w = 0; w < 2; ++w) {
        const int x = col(rng);
        const int gap = gapAt(rng);
        for (int layer = 0; layer < spec.numLayers; ++layer) {
            d.grid.addBlockage({{x, 0}, {x, gap - 1}}, layer, 0);
            d.grid.addBlockage({{x, gap + 3}, {x, spec.gridHeight - 1}},
                               layer, 0);
        }
    }
    return d;
}

TEST(CandidateEquivalence, ShrunkSynthSuites) {
    for (int suite = 1; suite <= 7; ++suite) {
        SCOPED_TRACE("synth" + std::to_string(suite) + "-shrunk");
        EXPECT_GT(expectBuildMatchesOracle(
                      gen::generate(gen::shrunkSynthSpec(suite))),
                  0U);
    }
}

TEST(CandidateEquivalence, ShrunkSynthSuitesAllLayerPairs) {
    // Every (h, v) pair, including ones whose vertical layer lies below
    // the horizontal one, so both concatenation orders are exercised.
    StreakOptions opts;
    opts.maxLayerPairs = 64;
    for (int suite = 1; suite <= 7; ++suite) {
        SCOPED_TRACE("synth" + std::to_string(suite) + "-shrunk");
        EXPECT_GT(expectBuildMatchesOracle(
                      gen::generate(gen::shrunkSynthSpec(suite)), opts),
                  0U);
    }
}

TEST(CandidateEquivalence, RandomWalledDesigns) {
    size_t open = 0;
    size_t viaLimited = 0;
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        open += expectBuildMatchesOracle(walledDesign(seed, false));
        SCOPED_TRACE("via-limited");
        viaLimited += expectBuildMatchesOracle(walledDesign(seed, true));
    }
    EXPECT_GT(viaLimited, 0U);
    // Same designs apart from the via model: the via filter must drop
    // candidates somewhere, or the via-limited half tests nothing new.
    EXPECT_LT(viaLimited, open);
}

TEST(CandidateEquivalence, FullSynthDesigns) {
    for (const int suite : {5, 6}) {
        for (const std::uint32_t seed : {1U, 2U}) {
            SCOPED_TRACE("synth" + std::to_string(suite) + " seed " +
                         std::to_string(seed));
            gen::SuiteSpec spec = gen::synthSpec(suite);
            spec.seed = seed;
            EXPECT_GT(expectBuildMatchesOracle(gen::generate(spec)), 0U);
        }
    }
}

/// The build/cand.* counters and the build spans of one traced run.
struct BuildObservation {
    std::map<std::string, long long> counters;
    long candidates = 0;
    std::vector<std::string> buildChildren;  // spans directly under flow/build
};

BuildObservation observeBuild(const Design& design, int threads) {
    StreakOptions opts;
    opts.threads = threads;
    opts.postOptimize = false;
    opts.session = std::make_shared<obs::Session>();
    opts.observer = [](const StreakObservation&) {};  // detail on
    const StreakResult r = runStreak(design, opts).value();
    BuildObservation out;
    for (const auto& [name, value] : r.counters.counters) {
        if (name.starts_with("build/cand.")) out.counters[name] = value;
    }
    for (const auto& cands : r.problem.candidates) {
        out.candidates += static_cast<long>(cands.size());
    }
    for (const obs::Span& span : r.trace) {
        if (span.parent >= 0 &&
            r.trace[static_cast<size_t>(span.parent)].name == "flow/build" &&
            span.name.starts_with("build/")) {
            out.buildChildren.push_back(span.name);
        }
    }
    return out;
}

TEST(CandidateCounters, CountExpansionsAndThreadCountInvariant) {
    const Design d = walledDesign(3, true);
    const BuildObservation one = observeBuild(d, 1);
    ASSERT_EQ(one.counters.size(), 3U);
    const StreakOptions defaults;
    const long long backbones = one.counters.at("build/cand.backbones");
    const long long pairs = one.counters.at("build/cand.layer_pairs");
    EXPECT_GT(backbones, 0);
    // Four layers give two H x two V pairs, capped at maxLayerPairs.
    EXPECT_EQ(pairs, backbones * std::min(defaults.maxLayerPairs, 4));
    // Every expansion is either a candidate or dropped as unfit.
    EXPECT_EQ(one.counters.at("build/cand.unfit") + one.candidates, pairs);
    EXPECT_EQ(one.counters, observeBuild(d, 2).counters);
    EXPECT_EQ(one.counters, observeBuild(d, 8).counters);
}

TEST(CandidateCounters, BuildSpansNestUnderFlowBuild) {
    const BuildObservation obs =
        observeBuild(gen::generate(gen::shrunkSynthSpec(2)), 2);
    EXPECT_EQ(obs.buildChildren,
              (std::vector<std::string>{"build/candidates", "build/pairs"}));
}

}  // namespace
}  // namespace streak
