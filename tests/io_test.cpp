#include <gtest/gtest.h>

#include <sstream>

#include "gen/generator.hpp"
#include "io/design_io.hpp"
#include "io/heatmap.hpp"
#include "io/table.hpp"
#include "robust/error.hpp"
#include "test_util.hpp"

namespace streak::io {
namespace {

TEST(DesignIo, RoundTripPreservesEverything) {
    const Design original = gen::makeSynth(1);
    std::stringstream ss;
    writeDesign(original, ss);
    const Design loaded = readDesign(ss);

    ASSERT_EQ(loaded.numGroups(), original.numGroups());
    ASSERT_EQ(loaded.numNets(), original.numNets());
    EXPECT_EQ(loaded.grid.width(), original.grid.width());
    EXPECT_EQ(loaded.grid.height(), original.grid.height());
    EXPECT_EQ(loaded.grid.numLayers(), original.grid.numLayers());
    for (int e = 0; e < original.grid.numEdges(); ++e) {
        EXPECT_EQ(loaded.grid.capacity(e), original.grid.capacity(e));
    }
    for (int g = 0; g < original.numGroups(); ++g) {
        const SignalGroup& og = original.groups[static_cast<size_t>(g)];
        const SignalGroup& lg = loaded.groups[static_cast<size_t>(g)];
        EXPECT_EQ(lg.name, og.name);
        for (int k = 0; k < og.width(); ++k) {
            EXPECT_EQ(lg.bits[static_cast<size_t>(k)].pins,
                      og.bits[static_cast<size_t>(k)].pins);
            EXPECT_EQ(lg.bits[static_cast<size_t>(k)].driver,
                      og.bits[static_cast<size_t>(k)].driver);
        }
    }
}

TEST(DesignIo, RejectsBadHeader) {
    std::stringstream ss("NOTSTREAK 1\nGRID 4 4 2 1\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, RejectsMissingGrid) {
    std::stringstream ss("STREAK 1\nGROUP g 0\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, RejectsPinCountMismatch) {
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nGROUP g 1\nBIT b 2 0\nPIN 1 1\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, RejectsDriverOutOfRange) {
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nGROUP g 1\nBIT b 1 3\nPIN 1 1\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, SkipsComments) {
    std::stringstream ss(
        "# leading comment\nSTREAK 1\n# another\nGRID 8 8 2 4\n");
    const Design d = readDesign(ss);
    EXPECT_EQ(d.grid.width(), 8);
    EXPECT_EQ(d.numGroups(), 0);
}


TEST(DesignIo, ViaModelRoundTrip) {
    Design original = gen::makeSynth(1);
    original.grid.setViaCapacity(6);
    original.grid.addViaBlockage({{4, 4}, {8, 8}}, 2);
    std::stringstream ss;
    writeDesign(original, ss);
    const Design loaded = readDesign(ss);
    ASSERT_TRUE(loaded.grid.viaLimited());
    for (int c = 0; c < original.grid.numCells(); ++c) {
        EXPECT_EQ(loaded.grid.viaCapacity(c), original.grid.viaCapacity(c));
    }
}

TEST(DesignIo, ViaBlockageWithoutCapIsRejected) {
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nVIABLOCKAGE 1 1 2 2 0\n");
    EXPECT_THROW(readDesign(ss), std::runtime_error);
}

TEST(DesignIo, TruncatedRecordReportsLineAndColumn) {
    // GRID on line 2 is cut off after the height: the error must name
    // the line and point past the last parsed character.
    std::stringstream ss("STREAK 1\nGRID 8 8\n");
    try {
        (void)readDesign(ss);
        FAIL() << "expected a parse error";
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput);
        EXPECT_EQ(e.error().site, "io/read");
        const std::string what = e.what();
        EXPECT_NE(what.find("bad GRID line"), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("column 9"), std::string::npos) << what;
    }
}

TEST(DesignIo, CorruptedFieldReportsLineAndColumn) {
    // The BIT pin count on line 4 is not a number; tellg() stops at the
    // space before it (column 6: after "BIT b").
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nGROUP g 1\nBIT b garbage 0\nPIN 1 1\n");
    try {
        (void)readDesign(ss);
        FAIL() << "expected a parse error";
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput);
        const std::string what = e.what();
        EXPECT_NE(what.find("bad BIT line"), std::string::npos) << what;
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("column"), std::string::npos) << what;
    }
}

TEST(DesignIo, CountMismatchReportsDeclaringLine) {
    // BIT on line 4 declares 2 pins but only 1 follows; the error points
    // back at the declaring record, not at end-of-file.
    std::stringstream ss(
        "STREAK 1\nGRID 8 8 2 4\nGROUP g 1\nBIT b 2 0\nPIN 1 1\n");
    try {
        (void)readDesign(ss);
        FAIL() << "expected a parse error";
    } catch (const robust::StreakException& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("pin count mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("declared 2, found 1"), std::string::npos) << what;
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    }
}

/// Outcome of reading a design whose only record is `gridLine`: "ok",
/// "invalid-input", or a description of any other failure.
std::string readGridOutcome(const std::string& gridLine) {
    std::stringstream ss("STREAK 1\n" + gridLine + "\n");
    try {
        (void)readDesign(ss);
        return "ok";
    } catch (const robust::StreakException& e) {
        if (e.error().kind != robust::ErrorKind::InvalidInput) {
            return "wrong kind: " + std::string(e.what());
        }
        const std::string what = e.what();
        if (what.find("line 2, column") == std::string::npos) {
            return "no line/column: " + what;
        }
        return "invalid-input";
    } catch (const std::exception& e) {
        return "escaped: " + std::string(e.what());
    }
}

TEST(DesignIo, GridHeaderFieldTable) {
    struct Case {
        const char* line;
        bool ok;
    };
    const Case cases[] = {
        // Smallest legal grid, zero capacity, odd and even layer counts.
        {"GRID 2 2 2 0", true},
        {"GRID 8 8 2 4", true},
        {"GRID 8 8 3 2147483647", true},
        // Field minima.
        {"GRID -5 4 2 16", false},
        {"GRID 1 4 2 16", false},
        {"GRID 3 1 2 16", false},
        {"GRID 4 0 2 16", false},
        {"GRID 4 4 1 16", false},
        {"GRID 4 4 0 16", false},
        {"GRID 4 4 -2 16", false},
        {"GRID 4 4 2 -1", false},
        // Ids that would overflow int.
        {"GRID 100000 100000 6 16", false},
        {"GRID 2000000000 2 2 1", false},
        {"GRID 46341 46341 2 1", false},
        {"GRID 30000 30000 2 1", false},
        {"GRID 2 2000000000 2 1", false},
        {"GRID 8 8 2147483647 1", false},
        // Truncations.
        {"GRID", false},
        {"GRID 8", false},
        {"GRID 8 8", false},
        {"GRID 8 8 2", false},
        // Non-numeric and out-of-range fields.
        {"GRID x 8 2 4", false},
        {"GRID 8 8 two 4", false},
        {"GRID 2147483648 8 2 4", false},
        {"GRID 8 99999999999999999999 2 4", false},
        {"GRID 8 8 -2147483649 4", false},
        // Grid-checked records before the GRID line.
        {"BLOCKAGE 0 0 1 1 0 1\nGRID 8 8 2 4", false},
        {"PIN 1 1\nGRID 8 8 2 4", false},
    };
    for (const Case& c : cases) {
        EXPECT_EQ(readGridOutcome(c.line), c.ok ? "ok" : "invalid-input")
            << c.line;
    }
}

/// Outcome of reading `records` after "STREAK 1" / "GRID 8 8 2 4": "ok",
/// "invalid-input at line N", or a description of any other failure.
std::string readRecordsOutcome(const std::string& records) {
    std::stringstream ss("STREAK 1\nGRID 8 8 2 4\n" + records + "\n");
    try {
        (void)readDesign(ss);
        return "ok";
    } catch (const robust::StreakException& e) {
        if (e.error().kind != robust::ErrorKind::InvalidInput) {
            return "wrong kind: " + std::string(e.what());
        }
        const std::string what = e.what();
        const size_t at = what.find("(line ");
        if (at == std::string::npos ||
            what.find(", column ", at) == std::string::npos) {
            return "no line/column: " + what;
        }
        return "invalid-input at line " +
               std::to_string(std::stoi(what.substr(at + 6)));
    } catch (const std::exception& e) {
        return "escaped: " + std::string(e.what());
    }
}

TEST(DesignIo, GridRecordFieldTable) {
    // Blockage, via and pin records are held to the grid the GRID line
    // declares: layer in range, lo <= hi, both corners inside, remaining
    // capacity >= 0, VIACAP >= 0, pins inside. Line 3 is the first record.
    const std::string pinBit = "GROUP g 1\nBIT b 2 0\nPIN 1 1\n";
    struct Case {
        std::string records;
        const char* want;
    };
    const Case cases[] = {
        {"BLOCKAGE 0 0 3 3 0 1", "ok"},
        {"BLOCKAGE 7 7 7 7 1 0", "ok"},
        {"VIACAP 0\nVIABLOCKAGE 0 0 7 7 0", "ok"},
        {pinBit + "PIN 7 7", "ok"},
        // Rectangles reaching far outside the grid (these used to spin
        // in the blockage loop for seconds, or forever at INT_MAX).
        {"BLOCKAGE 0 0 2000000000 2000000000 0 1", "invalid-input at line 3"},
        {"VIACAP 2\nVIABLOCKAGE -2000000000 0 2000000000 3 1",
         "invalid-input at line 4"},
        {"BLOCKAGE -1 0 3 3 0 1", "invalid-input at line 3"},
        {"BLOCKAGE 0 0 8 3 0 1", "invalid-input at line 3"},
        // Empty rectangle, layer out of range, negative capacities.
        {"BLOCKAGE 3 3 0 0 0 1", "invalid-input at line 3"},
        {"BLOCKAGE 0 0 3 3 2 1", "invalid-input at line 3"},
        {"BLOCKAGE 0 0 3 3 -1 1", "invalid-input at line 3"},
        {"BLOCKAGE 0 0 3 3 0 -7", "invalid-input at line 3"},
        {"VIACAP -1", "invalid-input at line 3"},
        {"VIACAP 2\nVIABLOCKAGE 0 0 3 3 -1", "invalid-input at line 4"},
        // Pins outside the grid.
        {pinBit + "PIN 50 5", "invalid-input at line 6"},
        {pinBit + "PIN 0 -1", "invalid-input at line 6"},
        // A second GRID line.
        {"GRID 4 4 2 4", "invalid-input at line 3"},
        // Truncated records still report where they stop.
        {"BLOCKAGE 0 0 3", "invalid-input at line 3"},
        {"VIACAP", "invalid-input at line 3"},
    };
    for (const Case& c : cases) {
        EXPECT_EQ(readRecordsOutcome(c.records), c.want) << c.records;
    }
}

TEST(DesignIo, GridFieldExtremesAreOkOrInvalidInput) {
    // Every numeric extreme in every GRID field: the reader either builds
    // the design or rejects it as invalid input, never anything else.
    const char* extremes[] = {"-2147483648", "-2147483649", "-1", "0", "1",
                              "2", "3", "65535", "65536", "2147483647",
                              "2147483648", "4294967296", "-0", "+2"};
    const std::string base[] = {"8", "8", "2", "4"};
    for (size_t field = 0; field < 4; ++field) {
        for (const char* value : extremes) {
            std::string line = "GRID";
            for (size_t k = 0; k < 4; ++k) {
                line += ' ';
                line += k == field ? std::string(value) : base[k];
            }
            const std::string outcome = readGridOutcome(line);
            EXPECT_TRUE(outcome == "ok" || outcome == "invalid-input")
                << line << ": " << outcome;
        }
    }
}

TEST(DesignIo, MissingFileIsInvalidInput) {
    try {
        (void)readDesignFile("/nonexistent/design.streak");
        FAIL() << "expected an error";
    } catch (const robust::StreakException& e) {
        EXPECT_EQ(e.error().kind, robust::ErrorKind::InvalidInput);
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos);
    }
}

TEST(Heatmap, CongestionGridReflectsUsage) {
    grid::RoutingGrid g(8, 8, 2, 4);
    grid::EdgeUsage usage(g);
    usage.add(g.edgeId(0, 3, 5), 2);
    const auto cells = congestionGrid(usage);
    EXPECT_DOUBLE_EQ(cells[5][3], 0.5);
    EXPECT_DOUBLE_EQ(cells[0][0], 0.0);
}

TEST(Heatmap, OverflowShowsAsX) {
    grid::RoutingGrid g(8, 8, 2, 2);
    grid::EdgeUsage usage(g);
    usage.add(g.edgeId(0, 3, 5), 5);
    std::stringstream ss;
    writeAsciiHeatmap(usage, ss);
    EXPECT_NE(ss.str().find('X'), std::string::npos);
}

TEST(Heatmap, CsvHasHeaderAndAllCells) {
    grid::RoutingGrid g(4, 3, 2, 2);
    grid::EdgeUsage usage(g);
    std::stringstream ss;
    writeCsvHeatmap(usage, ss);
    std::string line;
    int lines = 0;
    while (std::getline(ss, line)) ++lines;
    EXPECT_EQ(lines, 1 + 4 * 3);
}

TEST(Table, AlignsColumns) {
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::stringstream ss;
    t.print(ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Table, Formatters) {
    EXPECT_EQ(Table::percent(0.9934), "99.34%");
    EXPECT_EQ(Table::percent(1.0, 0), "100%");
    EXPECT_EQ(Table::fixed(7.005, 2), "7.00");  // round-to-even friendly
}

}  // namespace
}  // namespace streak::io
