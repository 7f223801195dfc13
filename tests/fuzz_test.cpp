// Randomized end-to-end property sweep: random suite specs through the
// whole flow, asserting every invariant that must hold regardless of the
// design (capacity legality, accounting, bounds, determinism, IO round
// trips, track assignment legality) — plus hostile-input fuzzing of the
// ECO checkpoint reader (truncation, bit flips, version skew) and of the
// campaign store reader (truncation, byte flips of a real record line).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "core/validate.hpp"
#include "eco/checkpoint.hpp"
#include "flow/streak.hpp"
#include "gen/generator.hpp"
#include "io/design_io.hpp"
#include "robust/error.hpp"
#include "track/tracks.hpp"

namespace streak {
namespace {

gen::SuiteSpec randomSpec(unsigned seed) {
    std::mt19937 rng(seed);
    const auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    gen::SuiteSpec s;
    s.name = "fuzz" + std::to_string(seed);
    s.gridWidth = pick(24, 64);
    s.gridHeight = pick(24, 64);
    s.numLayers = pick(2, 4) * 2;  // even stacks
    s.capacity = pick(4, 14);
    s.numGroups = pick(3, 14);
    s.minGroupWidth = pick(2, 4);
    s.maxGroupWidth = s.minGroupWidth + pick(0, 10);
    s.maxPins = pick(2, 9);
    s.multipinFraction = pick(0, 100) / 100.0;
    s.twoStyleFraction = pick(0, 80) / 100.0;
    s.stretchFraction = pick(0, 30) / 100.0;
    s.numBlockages = pick(0, 10);
    s.viaCapacity = pick(0, 3) == 0 ? pick(4, 10) : -1;
    s.seed = seed * 7919u + 3u;
    return s;
}

class FlowFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlowFuzz, GeneratedDesignIsValid) {
    const Design d = gen::generate(randomSpec(GetParam()));
    EXPECT_TRUE(isRoutable(validateDesign(d)));
}

TEST_P(FlowFuzz, FullFlowInvariants) {
    const Design d = gen::generate(randomSpec(GetParam()));
    StreakOptions opts;
    opts.postOptimize = true;
    const StreakResult r = runStreak(d, opts).value();

    EXPECT_EQ(r.metrics.totalOverflow, 0);
    EXPECT_EQ(r.metrics.totalViaOverflow, 0);
    EXPECT_EQ(r.routed.routedBits() +
                  static_cast<int>(r.routed.unroutedMembers.size()),
              d.numNets());
    EXPECT_GE(r.solverSolution.objective,
              r.problem.costLowerBound() - 1e-9);
    EXPECT_LE(r.distanceViolationsAfter, r.distanceViolationsBefore);
    EXPECT_GE(r.metrics.avgRegularity, 0.0);
    EXPECT_LE(r.metrics.avgRegularity, 1.0);
    for (const RoutedBit& b : r.routed.bits) {
        EXPECT_TRUE(b.topo.connected());
    }
}

TEST_P(FlowFuzz, FlowIsDeterministic) {
    const Design d = gen::generate(randomSpec(GetParam()));
    StreakOptions opts;
    opts.postOptimize = true;
    const StreakResult a = runStreak(d, opts).value();
    const StreakResult b = runStreak(d, opts).value();
    EXPECT_EQ(a.solverSolution.chosen, b.solverSolution.chosen);
    EXPECT_EQ(a.metrics.wirelength, b.metrics.wirelength);
    EXPECT_EQ(a.metrics.routedBits, b.metrics.routedBits);
}

TEST_P(FlowFuzz, DesignFileRoundTrip) {
    const Design d = gen::generate(randomSpec(GetParam()));
    std::stringstream ss;
    io::writeDesign(d, ss);
    const Design back = io::readDesign(ss);
    ASSERT_EQ(back.numNets(), d.numNets());
    // Routing the reloaded design gives identical results.
    StreakOptions opts;
    const StreakResult r1 = runStreak(d, opts).value();
    const StreakResult r2 = runStreak(back, opts).value();
    EXPECT_EQ(r1.metrics.wirelength, r2.metrics.wirelength);
    EXPECT_EQ(r1.metrics.routedBits, r2.metrics.routedBits);
}

TEST_P(FlowFuzz, TrackAssignmentLegal) {
    const Design d = gen::generate(randomSpec(GetParam()));
    const StreakResult r = runStreak(d, StreakOptions{}).value();
    const track::TrackAssignment ta = track::assignTracks(r.routed);
    // Placed trunks never exceed the covered edges' capacities.
    for (const track::AssignedWire& w : ta.wires) {
        if (w.track < 0) continue;
        EXPECT_GE(w.track, 0);
        const bool horiz = w.segment.horizontal();
        if (horiz) {
            for (int x = w.segment.a.x; x < w.segment.b.x; ++x) {
                EXPECT_LT(w.track,
                          d.grid.capacity(d.grid.edgeId(w.layer, x,
                                                        w.segment.a.y)));
            }
        } else {
            for (int y = w.segment.a.y; y < w.segment.b.y; ++y) {
                EXPECT_LT(w.track,
                          d.grid.capacity(d.grid.edgeId(w.layer,
                                                        w.segment.a.x, y)));
            }
        }
    }
    // A capacity-legal route leaves at most a tiny dogleg residue.
    EXPECT_LE(ta.unplaced,
              2 + static_cast<int>(ta.wires.size()) / 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowFuzz, ::testing::Range(1u, 13u));

// ----------------------------------------------- checkpoint reader fuzz
//
// The ECO checkpoint reader's contract (eco/checkpoint.hpp): any
// malformed buffer — truncated, bit-flipped, version-skewed, garbage —
// produces a structured robust::StreakError, never a crash or UB.
// check.sh stage 9 reruns this block under ASan/UBSan.

/// A deliberately tiny routed checkpoint so exhaustive per-byte fuzzing
/// stays cheap; built once per process.
const std::string& tinyCheckpointBuffer() {
    static const std::string buffer = [] {
        gen::SuiteSpec spec;
        spec.name = "ckptfuzz";
        spec.gridWidth = 12;
        spec.gridHeight = 12;
        spec.numLayers = 2;
        spec.numGroups = 2;
        spec.minGroupWidth = 2;
        spec.maxGroupWidth = 3;
        spec.numBlockages = 1;
        const Design d = gen::generate(spec);
        StreakOptions opts;
        const StreakResult r = runStreak(d, opts).value();
        std::ostringstream os;
        eco::writeCheckpoint(eco::makeCheckpoint(d, opts, r), os);
        return os.str();
    }();
    return buffer;
}

/// True when the reader rejected the buffer with the structured
/// invalid-input error; any other exception type propagates and fails
/// the test (that would be the reader breaking its contract).
bool rejectsStructurally(const std::string& buf) {
    try {
        (void)eco::readCheckpointBuffer(buf);
        return false;
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput)
            << e.error().describe();
        EXPECT_FALSE(e.error().message.empty());
        return true;
    }
}

TEST(CheckpointFuzz, IntactBufferParses) {
    const std::string& buf = tinyCheckpointBuffer();
    const eco::Checkpoint back = eco::readCheckpointBuffer(buf);
    EXPECT_GT(back.bits.size(), 0u);
}

TEST(CheckpointFuzz, EveryTruncationIsRejectedStructurally) {
    const std::string& buf = tinyCheckpointBuffer();
    for (size_t len = 0; len < buf.size(); ++len) {
        EXPECT_TRUE(rejectsStructurally(buf.substr(0, len)))
            << "prefix of " << len << " bytes parsed";
    }
}

TEST(CheckpointFuzz, EveryBitFlipIsRejectedStructurally) {
    // The trailing checksum covers every byte before it, so a single
    // flipped bit anywhere — header, payload or the checksum itself —
    // must surface as one structured error.
    const std::string& buf = tinyCheckpointBuffer();
    for (size_t i = 0; i < buf.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = buf;
            mutant[i] = static_cast<char>(
                static_cast<unsigned char>(mutant[i]) ^ (1u << bit));
            EXPECT_TRUE(rejectsStructurally(mutant))
                << "flip of byte " << i << " bit " << bit << " parsed";
        }
    }
}

/// The buffer with its u32 format version (offset 8, little-endian)
/// patched and the trailing FNV-1a repaired, so a rejection is the
/// version check itself, not a checksum side effect.
std::string withVersion(std::string buf, int version) {
    buf[8] = static_cast<char>(version);
    std::uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i + 8 < buf.size(); ++i) {
        h ^= static_cast<unsigned char>(buf[i]);
        h *= 1099511628211ull;
    }
    for (int i = 0; i < 8; ++i) {
        buf[buf.size() - 8 + static_cast<size_t>(i)] =
            static_cast<char>((h >> (8 * i)) & 0xffu);
    }
    return buf;
}

TEST(CheckpointFuzz, VersionSkewIsRejectedEvenWithAValidChecksum) {
    ASSERT_GT(tinyCheckpointBuffer().size(), 16u);
    EXPECT_TRUE(rejectsStructurally(
        withVersion(tinyCheckpointBuffer(), eco::kCheckpointVersion + 1)));
}

TEST(CheckpointFuzz, VersionOneFilesAreUnsupported) {
    // Version 1 still carried the LP engine and warm-start options; the
    // reader refuses it by version rather than misreading its options.
    ASSERT_EQ(eco::kCheckpointVersion, 2);
    try {
        (void)eco::readCheckpointBuffer(withVersion(tinyCheckpointBuffer(), 1));
        FAIL() << "a version-1 checkpoint parsed";
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput);
        EXPECT_NE(e.error().message.find("unsupported checkpoint version 1"),
                  std::string::npos)
            << e.error().message;
    }
}

TEST(CheckpointFuzz, GarbageBuffersAreRejectedStructurally) {
    EXPECT_TRUE(rejectsStructurally(""));
    EXPECT_TRUE(rejectsStructurally("STRKECO\n"));
    EXPECT_TRUE(rejectsStructurally("not a checkpoint at all"));
    std::mt19937 rng(7u);
    for (const size_t len : {16u, 64u, 1024u, 9000u}) {
        std::string junk(len, '\0');
        for (char& c : junk) c = static_cast<char>(rng() & 0xffu);
        EXPECT_TRUE(rejectsStructurally(junk)) << len << " random bytes";
    }
}

// ------------------------------------------------ campaign store fuzz
//
// The campaign store reader's contract (campaign/campaign.hpp): every
// line of a JSONL store ends as one record or one structured problem
// (blank and '#' lines as neither) — truncated, byte-flipped or not,
// never a crash. check.sh's ASan/UBSan stage reruns this block.

/// One real store line: a pd-nopost run over shrunk synth1.
const std::string& realRecordLine() {
    static const std::string line = [] {
        campaign::CampaignSpec spec;
        spec.suites = {1};
        spec.configs = {campaign::configByName("pd-nopost")};
        spec.threads = {1};
        std::ostringstream os;
        campaign::appendStore(campaign::runCampaign(spec), os);
        return os.str();
    }();
    return line;
}

/// Every non-blank, non-comment line of `text` must come back as exactly
/// one record or one problem.
void expectRecordOrProblem(const std::string& text, const std::string& label) {
    size_t lines = 0;
    std::istringstream split(text);
    for (std::string line; std::getline(split, line);) {
        const size_t start = line.find_first_not_of(" \t\r");
        if (start != std::string::npos && line[start] != '#') ++lines;
    }
    std::istringstream is(text);
    const campaign::Store store = campaign::readStore(is, "fuzz");
    EXPECT_EQ(store.records.size() + store.problems.size(), lines) << label;
}

TEST(CampaignStoreFuzz, RealLineReadsBackAsARecord) {
    std::istringstream is(realRecordLine());
    const campaign::Store store = campaign::readStore(is, "fuzz");
    EXPECT_TRUE(store.problems.empty());
    ASSERT_EQ(store.records.size(), 1u);
    EXPECT_FALSE(store.records[0].counters.empty());
}

TEST(CampaignStoreFuzz, EveryTruncationIsARecordOrAProblem) {
    const std::string& line = realRecordLine();
    for (size_t len = 0; len < line.size(); ++len) {
        expectRecordOrProblem(line.substr(0, len),
                              "prefix of " + std::to_string(len));
    }
}

TEST(CampaignStoreFuzz, EveryByteFlipIsARecordOrAProblem) {
    const std::string& line = realRecordLine();
    for (size_t i = 0; i < line.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = line;
            mutant[i] = static_cast<char>(
                static_cast<unsigned char>(mutant[i]) ^ (1u << bit));
            expectRecordOrProblem(mutant, "flip of byte " + std::to_string(i) +
                                              " bit " + std::to_string(bit));
        }
    }
}

}  // namespace
}  // namespace streak
