#include "io/design_io.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "robust/error.hpp"
#include "robust/fault.hpp"

namespace streak::io {

namespace {

/// Parse failures are structured invalid-input errors: the CLI maps
/// them to exit code 3 and prints the (line, column) context. line 0
/// means "no position" (e.g. a missing record noticed at end of input).
[[noreturn]] void fail(const std::string& what, int line = 0, int column = 0) {
    std::string msg = "readDesign: " + what;
    if (line > 0) {
        msg += " (line " + std::to_string(line);
        if (column > 0) msg += ", column " + std::to_string(column);
        msg += ")";
    }
    robust::StreakError err;
    err.kind = robust::ErrorKind::InvalidInput;
    err.site = "io/read";
    err.message = std::move(msg);
    robust::raise(std::move(err));
}

/// 1-based column where a field extraction stopped. After a failed
/// `>>`, tellg() is -1; the useful position is then the line's end
/// (truncated record) rather than nothing.
int columnOf(std::istringstream& ss, const std::string& line) {
    ss.clear();
    const auto pos = ss.tellg();
    if (pos < 0) return static_cast<int>(line.size()) + 1;
    return static_cast<int>(pos) + 1;
}

/// 1-based column where whitespace-separated field `index` of a line
/// starts (field 0 is the record keyword). Only computed to report.
int fieldColumn(const std::string& line, int index) {
    constexpr const char* kSpace = " \t\r\v\f";
    size_t pos = line.find_first_not_of(kSpace);
    for (int k = 0; k < index && pos != std::string::npos; ++k) {
        pos = line.find_first_not_of(kSpace, line.find_first_of(kSpace, pos));
    }
    return pos == std::string::npos ? static_cast<int>(line.size()) + 1
                                    : static_cast<int>(pos) + 1;
}

/// Grid checks for the records that follow GRID: the rules ECO rectangle
/// deltas follow (layer in range, both corners inside, lo <= hi,
/// remaining capacity >= 0), plus pins inside the grid. A failure points
/// at the offending field of the current line.
struct RecordCheck {
    const std::string& line;
    int lineNo;
    int width;
    int height;
    int layers;

    [[noreturn]] void failAt(const std::string& what, int field) const {
        fail(what, lineNo, fieldColumn(line, field));
    }
    [[nodiscard]] bool contains(geom::Point p) const {
        return p.x >= 0 && p.x < width && p.y >= 0 && p.y < height;
    }
    [[noreturn]] void outside(const std::string& what, geom::Point p,
                              int field) const {
        failAt(what + " (" + std::to_string(p.x) + ", " +
                   std::to_string(p.y) + ") is outside the " +
                   std::to_string(width) + " x " + std::to_string(height) +
                   " grid",
               field);
    }
    void pin(geom::Point p) const {
        if (!contains(p)) outside("PIN", p, 1);
    }
    /// A rectangle in fields 1-4 (lo x, lo y, hi x, hi y).
    void rect(const char* record, const geom::Rect& r) const {
        if (!contains(r.lo)) outside(record + std::string(" corner"), r.lo, 1);
        if (!contains(r.hi)) outside(record + std::string(" corner"), r.hi, 3);
        if (r.lo.x > r.hi.x || r.lo.y > r.hi.y) {
            failAt(record + std::string(" is empty: lo corner exceeds hi"), 1);
        }
    }
    void layer(const char* record, int l, int field) const {
        if (l < 0 || l >= layers) {
            failAt(record + std::string(" layer ") + std::to_string(l) +
                       " is outside 0.." + std::to_string(layers - 1),
                   field);
        }
    }
    void capacity(const char* record, int cap, int field) const {
        if (cap < 0) {
            failAt(record + std::string(" capacity must be at least 0, got ") +
                       std::to_string(cap),
                   field);
        }
    }
};

/// Parse and validate the fields of a GRID record. Each field must meet
/// its minimum (a 2x2 grid, two layers, non-negative capacity), and every
/// 3-D cell plus every edge id must be addressable by an int, so that
/// RoutingGrid neither rejects the grid nor overflows its ids.
void readGrid(std::istringstream& ss, const std::string& line, int lineNo,
              int* width, int* height, int* layers, int* cap) {
    struct Field {
        const char* name;
        int* value;
        int min;
    };
    for (const Field& f : {Field{"width", width, 2}, Field{"height", height, 2},
                           Field{"layers", layers, 2},
                           Field{"capacity", cap, 0}}) {
        ss >> std::ws;
        const int column = columnOf(ss, line);
        ss >> *f.value;
        if (!ss) fail("bad GRID line", lineNo, columnOf(ss, line));
        if (*f.value < f.min) {
            fail("GRID " + std::string(f.name) + " must be at least " +
                     std::to_string(f.min) + ", got " +
                     std::to_string(*f.value),
                 lineNo, column);
        }
    }
    // Bounded step by step so no product overflows: cells <= INT_MAX
    // keeps cells * layers and the edge count below 2^62.
    constexpr long long kMaxIds = std::numeric_limits<int>::max();
    const long long cells = static_cast<long long>(*width) * *height;
    const long long hLayers = (static_cast<long long>(*layers) + 1) / 2;
    const long long vLayers = *layers / 2;
    const bool fits =
        cells <= kMaxIds &&
        cells * *layers + hLayers * (*width - 1) * *height +
                vLayers * *width * (*height - 1) <=
            kMaxIds;
    if (!fits) {
        fail("GRID " + std::to_string(*width) + " x " +
                 std::to_string(*height) + " x " + std::to_string(*layers) +
                 " is too large: its cells x layers plus edge ids exceed " +
                 std::to_string(kMaxIds),
             lineNo, 1);
    }
}

}  // namespace

void writeDesign(const Design& design, std::ostream& os) {
    os << "STREAK 1\n";
    os << "# design: " << design.name << '\n';
    const grid::RoutingGrid& g = design.grid;
    // Default capacity is not recoverable once blockages applied; emit the
    // grid with per-edge capacity deltas below.
    os << "GRID " << g.width() << ' ' << g.height() << ' ' << g.numLayers();
    // Use the maximum capacity as the default and re-emit dents.
    int defaultCap = 0;
    for (int e = 0; e < g.numEdges(); ++e) {
        defaultCap = std::max(defaultCap, g.capacity(e));
    }
    os << ' ' << defaultCap << '\n';
    for (int e = 0; e < g.numEdges(); ++e) {
        if (g.capacity(e) != defaultCap) {
            const auto c = g.edgeCoord(e);
            os << "BLOCKAGE " << c.x << ' ' << c.y << ' ' << c.x << ' ' << c.y
               << ' ' << c.layer << ' ' << g.capacity(e) << '\n';
        }
    }
    if (g.viaLimited()) {
        int defaultVia = 0;
        for (int c = 0; c < g.numCells(); ++c) {
            defaultVia = std::max(defaultVia, g.viaCapacity(c));
        }
        os << "VIACAP " << defaultVia << '\n';
        for (int y = 0; y < g.height(); ++y) {
            for (int x = 0; x < g.width(); ++x) {
                const int cap = g.viaCapacity(g.cellIndex(x, y));
                if (cap != defaultVia) {
                    os << "VIABLOCKAGE " << x << ' ' << y << ' ' << x << ' '
                       << y << ' ' << cap << '\n';
                }
            }
        }
    }
    for (const SignalGroup& group : design.groups) {
        os << "GROUP " << group.name << ' ' << group.width() << '\n';
        for (const Bit& bit : group.bits) {
            os << "BIT " << bit.name << ' ' << bit.numPins() << ' '
               << bit.driver << '\n';
            for (const geom::Point p : bit.pins) {
                os << "PIN " << p.x << ' ' << p.y << '\n';
            }
        }
    }
}

void writeDesignFile(const Design& design, const std::string& path) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("writeDesignFile: cannot open " + path);
    writeDesign(design, os);
}

Design readDesign(std::istream& is) {
    STREAK_FAULT_POINT("io/read");
    std::string line;
    int lineNo = 0;
    // Header.
    for (;;) {
        if (!std::getline(is, line)) fail("missing header");
        ++lineNo;
        if (line.empty() || line[0] == '#') continue;
        break;
    }
    {
        std::istringstream ss(line);
        std::string magic;
        int version = 0;
        ss >> magic >> version;
        if (magic != "STREAK" || version != 1) {
            fail("bad header: " + line, lineNo, 1);
        }
    }

    int width = 0, height = 0, layers = 0, cap = 0;
    bool haveGrid = false;
    std::string pendingName = "design";

    // Parse body into a staging structure, then build.
    struct PendingBit {
        std::string name;
        int driver = 0;
        std::vector<geom::Point> pins;
        int expectedPins = 0;
        int line = 0;  // where the BIT record was declared
    };
    struct PendingGroup {
        std::string name;
        std::vector<PendingBit> bits;
        int expectedBits = 0;
        int line = 0;  // where the GROUP record was declared
    };
    std::vector<PendingGroup> groups;
    struct Blockage {
        geom::Rect rect;
        int layer;
        int remaining;
    };
    std::vector<Blockage> blockages;
    int viaCap = -1;
    struct ViaBlockage {
        geom::Rect rect;
        int remaining;
    };
    std::vector<ViaBlockage> viaBlockages;

    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ss(line);
        std::string kind;
        ss >> kind;
        // Records checked against the grid must follow its one GRID line.
        const bool needsGrid =
            kind == "BLOCKAGE" || kind == "VIABLOCKAGE" || kind == "PIN";
        if (needsGrid && !haveGrid) fail(kind + " before GRID", lineNo, 1);
        const RecordCheck check{line, lineNo, width, height, layers};
        if (kind == "GRID") {
            if (haveGrid) fail("duplicate GRID", lineNo, 1);
            readGrid(ss, line, lineNo, &width, &height, &layers, &cap);
            haveGrid = true;
        } else if (kind == "BLOCKAGE") {
            Blockage b{};
            ss >> b.rect.lo.x >> b.rect.lo.y >> b.rect.hi.x >> b.rect.hi.y >>
                b.layer >> b.remaining;
            if (!ss) fail("bad BLOCKAGE line", lineNo, columnOf(ss, line));
            check.rect("BLOCKAGE", b.rect);
            check.layer("BLOCKAGE", b.layer, 5);
            check.capacity("BLOCKAGE", b.remaining, 6);
            blockages.push_back(b);
        } else if (kind == "VIACAP") {
            ss >> viaCap;
            if (!ss) fail("bad VIACAP line", lineNo, columnOf(ss, line));
            check.capacity("VIACAP", viaCap, 1);
        } else if (kind == "VIABLOCKAGE") {
            ViaBlockage b{};
            ss >> b.rect.lo.x >> b.rect.lo.y >> b.rect.hi.x >> b.rect.hi.y >>
                b.remaining;
            if (!ss) fail("bad VIABLOCKAGE line", lineNo, columnOf(ss, line));
            check.rect("VIABLOCKAGE", b.rect);
            check.capacity("VIABLOCKAGE", b.remaining, 5);
            viaBlockages.push_back(b);
        } else if (kind == "GROUP") {
            PendingGroup g;
            ss >> g.name >> g.expectedBits;
            if (!ss) fail("bad GROUP line", lineNo, columnOf(ss, line));
            g.line = lineNo;
            groups.push_back(std::move(g));
        } else if (kind == "BIT") {
            if (groups.empty()) fail("BIT before GROUP", lineNo, 1);
            PendingBit b;
            ss >> b.name >> b.expectedPins >> b.driver;
            if (!ss) fail("bad BIT line", lineNo, columnOf(ss, line));
            b.line = lineNo;
            groups.back().bits.push_back(std::move(b));
        } else if (kind == "PIN") {
            if (groups.empty() || groups.back().bits.empty()) {
                fail("PIN before BIT", lineNo, 1);
            }
            geom::Point p{};
            ss >> p.x >> p.y;
            if (!ss) fail("bad PIN line", lineNo, columnOf(ss, line));
            check.pin(p);
            groups.back().bits.back().pins.push_back(p);
        } else {
            fail("unknown record: " + kind, lineNo, 1);
        }
    }
    if (!haveGrid) fail("missing GRID");

    Design design{pendingName, grid::RoutingGrid(width, height, layers, cap), {}};
    for (const Blockage& b : blockages) {
        design.grid.addBlockage(b.rect, b.layer, b.remaining);
    }
    if (viaCap >= 0) {
        design.grid.setViaCapacity(viaCap);
        for (const ViaBlockage& b : viaBlockages) {
            design.grid.addViaBlockage(b.rect, b.remaining);
        }
    } else if (!viaBlockages.empty()) {
        fail("VIABLOCKAGE without VIACAP");
    }
    for (PendingGroup& pg : groups) {
        if (static_cast<int>(pg.bits.size()) != pg.expectedBits) {
            fail("group " + pg.name + " bit count mismatch: declared " +
                     std::to_string(pg.expectedBits) + ", found " +
                     std::to_string(pg.bits.size()),
                 pg.line);
        }
        SignalGroup g;
        g.name = std::move(pg.name);
        for (PendingBit& pb : pg.bits) {
            if (static_cast<int>(pb.pins.size()) != pb.expectedPins) {
                fail("bit " + pb.name + " pin count mismatch: declared " +
                         std::to_string(pb.expectedPins) + ", found " +
                         std::to_string(pb.pins.size()),
                     pb.line);
            }
            if (pb.driver < 0 ||
                pb.driver >= static_cast<int>(pb.pins.size())) {
                fail("bit " + pb.name + " driver out of range", pb.line);
            }
            g.bits.push_back(
                {std::move(pb.name), std::move(pb.pins), pb.driver});
        }
        design.groups.push_back(std::move(g));
    }
    return design;
}

Design readDesignFile(const std::string& path) {
    std::ifstream is(path);
    if (!is) {
        robust::StreakError err;
        err.kind = robust::ErrorKind::InvalidInput;
        err.site = "io/read";
        err.message = "readDesignFile: cannot open " + path;
        robust::raise(std::move(err));
    }
    return readDesign(is);
}

}  // namespace streak::io
