// End-to-end campaign runs (slow tier): a mini sweep over a shrunk
// suite persists well-formed, provenance-stamped records; the records
// round-trip through the JSONL store; a self-diff is clean; and the
// counter-scaling drill knob makes the diff flag an LP-pivot regression.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/json.hpp"

namespace streak {
namespace {

namespace json = obs::json;

campaign::CampaignSpec miniSpec() {
    campaign::CampaignSpec spec;
    spec.suites = {1};
    spec.configs = {campaign::configByName("pd-nopost"),
                    campaign::configByName("ilp"),
                    campaign::configByName("manual")};
    spec.threads = {1, 2};
    return spec;
}

class CampaignSweep : public ::testing::Test {
protected:
    // One real sweep shared by every test in the suite. Order is
    // config-major, threads-minor: pd-nopost t1/t2, ilp t1/t2,
    // manual t1/t2.
    static void SetUpTestSuite() {
        records_ = new std::vector<campaign::RunRecord>(
            campaign::runCampaign(miniSpec()));
    }
    static void TearDownTestSuite() {
        delete records_;
        records_ = nullptr;
    }
    static const std::vector<campaign::RunRecord>& records() {
        return *records_;
    }
    static campaign::Store store() {
        campaign::Store s;
        s.records = records();
        return s;
    }

private:
    static std::vector<campaign::RunRecord>* records_;
};

std::vector<campaign::RunRecord>* CampaignSweep::records_ = nullptr;

TEST_F(CampaignSweep, PersistsOneProvenancedRecordPerSweepPoint) {
    ASSERT_EQ(records().size(), 6u);  // 1 suite x 3 configs x 2 threads
    for (const campaign::RunRecord& r : records()) {
        EXPECT_EQ(r.instance, "synth1-shrunk");
        EXPECT_EQ(r.problemHash.size(), 16u) << r.config;
        EXPECT_EQ(r.configHash.size(), 16u) << r.config;
        EXPECT_FALSE(r.hostname.empty());
        EXPECT_GE(r.hardwareThreads, 1);
        EXPECT_GT(r.wallSeconds, 0.0);
        EXPECT_GT(r.wirelength, 0) << r.config;
        EXPECT_FALSE(r.degraded) << r.config;
        if (r.config != "manual") {
            EXPECT_FALSE(r.counters.empty()) << r.config;
        }
    }
    // Detail instrumentation is on, so each flow config's hot-path
    // counter — the one the diff watches — is present. The manual
    // baseline's pattern route places every synth1 bit, so its maze
    // search never runs.
    EXPECT_TRUE(records()[0].counters.contains("solve/pd.iterations"));
    EXPECT_TRUE(records()[2].counters.contains("ilp/lp.pivots"));
    EXPECT_DOUBLE_EQ(records()[4].routability, 1.0);
    EXPECT_FALSE(records()[4].counters.contains("route/maze.pops"));
    // Same problem, so the problem hash is shared; distinct configs hash
    // apart.
    EXPECT_EQ(records()[0].problemHash, records()[2].problemHash);
    EXPECT_NE(records()[0].configHash, records()[2].configHash);
    EXPECT_NE(records()[2].configHash, records()[4].configHash);
}

TEST_F(CampaignSweep, CountersAreThreadCountInvariant) {
    for (const size_t at : {0u, 2u, 4u}) {
        EXPECT_EQ(records()[at].counters, records()[at + 1].counters)
            << records()[at].config;
        EXPECT_EQ(records()[at].wirelength, records()[at + 1].wirelength)
            << records()[at].config;
    }
}

TEST_F(CampaignSweep, RecordsRoundTripThroughTheStore) {
    std::ostringstream os;
    campaign::appendStore(records(), os);
    std::istringstream is(os.str());
    const campaign::Store back = campaign::readStore(is, "store");
    EXPECT_TRUE(back.problems.empty());
    ASSERT_EQ(back.records.size(), records().size());
    for (size_t i = 0; i < records().size(); ++i) {
        EXPECT_EQ(back.records[i].config, records()[i].config);
        EXPECT_EQ(back.records[i].threads, records()[i].threads);
        EXPECT_EQ(back.records[i].counters, records()[i].counters);
        EXPECT_EQ(back.records[i].wirelength, records()[i].wirelength);
    }
}

TEST_F(CampaignSweep, SelfDiffIsClean) {
    const campaign::DiffReport report =
        campaign::diffAgainstStore(store(), store());
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.comparedRuns, 6);
    EXPECT_TRUE(report.notes.empty());
}

TEST_F(CampaignSweep, ScaledCounterDrillFlagsAPivotRegression) {
    // The drill knob: re-run the ilp sweep point with LP pivots scaled
    // 2x and diff it against the clean baseline.
    campaign::CampaignSpec drill;
    drill.suites = {1};
    drill.configs = {campaign::configByName("ilp")};
    drill.threads = {1};
    drill.scaleCounters = {{"ilp/lp.pivots", 2.0}};
    campaign::Store current;
    current.records = campaign::runCampaign(drill);
    ASSERT_EQ(current.records.size(), 1u);

    const campaign::DiffReport report =
        campaign::diffAgainstStore(store(), current);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.regressions.size(), 1u);
    const campaign::Regression& r = report.regressions.front();
    EXPECT_EQ(r.kind, "counter");
    EXPECT_EQ(r.metric, "ilp/lp.pivots");
    EXPECT_NEAR(r.growthPercent, 100.0, 1e-6);

    // The verdict the CLI writes for this diff says not-ok.
    const json::Value verdict = campaign::verdictJson({report});
    EXPECT_FALSE(verdict.find("ok")->asBool());
    EXPECT_EQ(static_cast<int>(verdict.find("regressionCount")->asNumber()),
              1);
}

}  // namespace
}  // namespace streak
