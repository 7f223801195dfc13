#include "eco/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>

#include "core/candidate.hpp"
#include "obs/json.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"

namespace streak::eco {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'R', 'K', 'E', 'C', 'O', '\n'};

// Sanity caps for hostile input: generous for any realistic design, tight
// enough that a fuzzed count can never drive a giant allocation.
constexpr int kMaxDim = 8192;
constexpr int kMaxLayers = 64;
constexpr int kMaxCapacity = 1 << 20;
constexpr long kMaxEdges = 1L << 28;

[[nodiscard]] std::uint64_t fnv1a(std::string_view data) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

// --- little-endian emitters ------------------------------------------

void putU8(std::string* b, std::uint8_t v) {
    b->push_back(static_cast<char>(v));
}

void putU32(std::string* b, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        b->push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    }
}

void putI32(std::string* b, std::int32_t v) {
    putU32(b, static_cast<std::uint32_t>(v));
}

void putU64(std::string* b, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        b->push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    }
}

void putI64(std::string* b, std::int64_t v) {
    putU64(b, static_cast<std::uint64_t>(v));
}

void putF64(std::string* b, double v) {
    putU64(b, std::bit_cast<std::uint64_t>(v));
}

void putStr(std::string* b, const std::string& s) {
    putU32(b, static_cast<std::uint32_t>(s.size()));
    b->append(s);
}

void putPairs(std::string* b, const std::vector<std::pair<int, int>>& ps) {
    putU32(b, static_cast<std::uint32_t>(ps.size()));
    for (const auto& [a, c] : ps) {
        putI32(b, a);
        putI32(b, c);
    }
}

void putFlags(std::string* b, const std::vector<char>& flags) {
    putU32(b, static_cast<std::uint32_t>(flags.size()));
    for (const char f : flags) putU8(b, f != 0 ? 1 : 0);
}

// --- bounds-checked little-endian reader -----------------------------

class Reader {
public:
    explicit Reader(std::string_view data) : data_(data) {}

    [[noreturn]] void fail(const std::string& what) const {
        robust::StreakError err;
        err.kind = robust::ErrorKind::InvalidInput;
        err.site = "eco/read";
        err.message = "checkpoint: " + what + " (at byte " +
                      std::to_string(pos_) + ")";
        robust::raise(std::move(err));
    }

    [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }

    void need(size_t n) const {
        if (n > remaining()) fail("truncated payload");
    }

    [[nodiscard]] std::uint8_t u8() {
        need(1);
        return static_cast<unsigned char>(data_[pos_++]);
    }

    [[nodiscard]] std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += 4;
        return v;
    }

    [[nodiscard]] std::int32_t i32() {
        return static_cast<std::int32_t>(u32());
    }

    [[nodiscard]] std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += 8;
        return v;
    }

    [[nodiscard]] std::int64_t i64() {
        return static_cast<std::int64_t>(u64());
    }

    [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

    /// A count that prefixes `minElemBytes`-sized elements; bounded by the
    /// bytes actually left, so counts can never drive a giant allocation.
    [[nodiscard]] std::uint32_t count(size_t minElemBytes,
                                      const char* what) {
        const std::uint32_t n = u32();
        if (static_cast<size_t>(n) > remaining() / minElemBytes) {
            fail(std::string(what) + " count exceeds payload size");
        }
        return n;
    }

    [[nodiscard]] std::string str() {
        const std::uint32_t n = count(1, "string");
        std::string s(data_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    [[nodiscard]] std::string_view view(size_t n) {
        need(n);
        const std::string_view v = data_.substr(pos_, n);
        pos_ += n;
        return v;
    }

private:
    std::string_view data_;
    size_t pos_ = 0;
};

}  // namespace

StreakOptions semanticOptions(const StreakOptions& opts) {
    StreakOptions s;
    s.backbone = opts.backbone;
    s.maxLayerPairs = opts.maxLayerPairs;
    s.viaWeight = opts.viaWeight;
    s.layerAdjacencyWeight = opts.layerAdjacencyWeight;
    s.nonRoutePenaltyM = opts.nonRoutePenaltyM;
    s.irregularityWeight = opts.irregularityWeight;
    s.noSharePenalty = opts.noSharePenalty;
    s.pairLayerWeight = opts.pairLayerWeight;
    s.solver = opts.solver;
    s.ilpTimeLimitSeconds = opts.ilpTimeLimitSeconds;
    s.threads = opts.threads;
    s.postOptimize = opts.postOptimize;
    s.clusteringEnabled = opts.clusteringEnabled;
    s.refinementEnabled = opts.refinementEnabled;
    s.distanceThresholdFraction = opts.distanceThresholdFraction;
    s.maxDetourShift = opts.maxDetourShift;
    return s;
}

namespace {

void writeGrid(std::string* b, const grid::RoutingGrid& grid) {
    putI32(b, grid.width());
    putI32(b, grid.height());
    putI32(b, grid.numLayers());
    putI32(b, grid.defaultCapacity());
    putI32(b, grid.numEdges());
    for (int e = 0; e < grid.numEdges(); ++e) putI32(b, grid.capacity(e));
    putU8(b, grid.viaLimited() ? 1 : 0);
    if (grid.viaLimited()) {
        putI32(b, grid.numCells());
        for (int c = 0; c < grid.numCells(); ++c) {
            putI32(b, grid.viaCapacity(c));
        }
    }
}

void writeOptions(std::string* b, const StreakOptions& opts) {
    putI32(b, opts.backbone.maxBackbones);
    putI32(b, opts.backbone.bendPenalty);
    putU8(b, opts.backbone.useSteinerPoints ? 1 : 0);
    putI32(b, opts.maxLayerPairs);
    putF64(b, opts.viaWeight);
    putF64(b, opts.layerAdjacencyWeight);
    putF64(b, opts.nonRoutePenaltyM);
    putF64(b, opts.irregularityWeight);
    putF64(b, opts.noSharePenalty);
    putF64(b, opts.pairLayerWeight);
    putI32(b, static_cast<int>(opts.solver));
    putF64(b, opts.ilpTimeLimitSeconds);
    putI32(b, opts.threads);
    putU8(b, opts.postOptimize ? 1 : 0);
    putU8(b, opts.clusteringEnabled ? 1 : 0);
    putU8(b, opts.refinementEnabled ? 1 : 0);
    putF64(b, opts.distanceThresholdFraction);
    putI32(b, opts.maxDetourShift);
}

void writeTopology(std::string* b, const steiner::Topology& topo) {
    putU32(b, static_cast<std::uint32_t>(topo.pins().size()));
    for (const geom::Point p : topo.pins()) {
        putI32(b, p.x);
        putI32(b, p.y);
    }
    putI32(b, topo.driverIndex());
    const std::vector<steiner::UnitEdge> wire = topo.sortedWire();
    putU32(b, static_cast<std::uint32_t>(wire.size()));
    for (const steiner::UnitEdge& e : wire) {
        putI32(b, e.at.x);
        putI32(b, e.at.y);
        putU8(b, e.horizontal ? 1 : 0);
    }
}

// --- reader stages ----------------------------------------------------

grid::RoutingGrid readGrid(Reader* r) {
    const int width = r->i32();
    const int height = r->i32();
    const int numLayers = r->i32();
    const int defaultCap = r->i32();
    if (width < 2 || width > kMaxDim || height < 2 || height > kMaxDim) {
        r->fail("grid dimensions out of range");
    }
    if (numLayers < 2 || numLayers > kMaxLayers) {
        r->fail("layer count out of range");
    }
    if (defaultCap < 0 || defaultCap > kMaxCapacity) {
        r->fail("default capacity out of range");
    }
    long expectedEdges = 0;
    for (int l = 0; l < numLayers; ++l) {
        expectedEdges += (l % 2 == 0) ? static_cast<long>(width - 1) * height
                                      : static_cast<long>(width) * (height - 1);
    }
    const int storedEdges = r->i32();
    if (expectedEdges > kMaxEdges || storedEdges != expectedEdges) {
        r->fail("edge count does not match grid dimensions");
    }
    grid::RoutingGrid grid(width, height, numLayers, defaultCap);
    for (int e = 0; e < storedEdges; ++e) {
        const int cap = r->i32();
        if (cap < 0 || cap > kMaxCapacity) r->fail("edge capacity out of range");
        grid.setCapacity(e, cap);
    }
    if (r->u8() != 0) {
        const int cells = r->i32();
        if (cells != grid.numCells()) r->fail("via cell count mismatch");
        grid.setViaCapacity(0);
        for (int c = 0; c < cells; ++c) {
            const int cap = r->i32();
            if (cap < -1 || cap > kMaxCapacity) {
                r->fail("via capacity out of range");
            }
            grid.setViaCapacityAt(c, cap);
        }
    }
    return grid;
}

void readOptions(Reader* r, StreakOptions* opts) {
    opts->backbone.maxBackbones = r->i32();
    opts->backbone.bendPenalty = r->i32();
    opts->backbone.useSteinerPoints = r->u8() != 0;
    opts->maxLayerPairs = r->i32();
    opts->viaWeight = r->f64();
    opts->layerAdjacencyWeight = r->f64();
    opts->nonRoutePenaltyM = r->f64();
    opts->irregularityWeight = r->f64();
    opts->noSharePenalty = r->f64();
    opts->pairLayerWeight = r->f64();
    const int solver = r->i32();
    if (solver < 0 || solver > 2) r->fail("unknown solver kind");
    opts->solver = static_cast<SolverKind>(solver);
    opts->ilpTimeLimitSeconds = r->f64();
    opts->threads = r->i32();
    opts->postOptimize = r->u8() != 0;
    opts->clusteringEnabled = r->u8() != 0;
    opts->refinementEnabled = r->u8() != 0;
    opts->distanceThresholdFraction = r->f64();
    opts->maxDetourShift = r->i32();
    if (opts->backbone.maxBackbones < 1 || opts->maxLayerPairs < 1 ||
        opts->threads < 0 || opts->maxDetourShift < 0) {
        r->fail("option value out of range");
    }
    for (const double v :
         {opts->viaWeight, opts->layerAdjacencyWeight, opts->nonRoutePenaltyM,
          opts->irregularityWeight, opts->noSharePenalty,
          opts->pairLayerWeight, opts->ilpTimeLimitSeconds,
          opts->distanceThresholdFraction}) {
        if (!std::isfinite(v)) r->fail("non-finite option value");
    }
}

steiner::Topology readTopology(Reader* r, const grid::RoutingGrid& grid) {
    const std::uint32_t numPins = r->count(8, "topology pin");
    if (numPins == 0) r->fail("topology with no pins");
    std::vector<geom::Point> pins;
    pins.reserve(numPins);
    for (std::uint32_t i = 0; i < numPins; ++i) {
        const geom::Point p{r->i32(), r->i32()};
        if (!grid.contains(p)) r->fail("topology pin outside the grid");
        pins.push_back(p);
    }
    const int driver = r->i32();
    if (driver < 0 || static_cast<std::uint32_t>(driver) >= numPins) {
        r->fail("topology driver index out of range");
    }
    steiner::Topology topo(std::move(pins), driver);
    const std::uint32_t numWire = r->count(9, "wire edge");
    for (std::uint32_t i = 0; i < numWire; ++i) {
        const steiner::UnitEdge e{{r->i32(), r->i32()}, r->u8() != 0};
        if (!grid.contains(e.at) || !grid.contains(e.other())) {
            r->fail("wire edge outside the grid");
        }
        topo.addSegment(e.segment());
    }
    return topo;
}

/// Cross-checks that make a parsed checkpoint internally consistent:
/// every design bit is routed or unrouted exactly once, every routed
/// topology matches its design bit's pins, and the stored usage equals a
/// recompute from the stored topologies.
void validateCheckpoint(Reader* r, const Checkpoint& c) {
    const Design& design = *c.design;
    std::set<std::pair<int, int>> seen;
    for (const RoutedBit& b : c.bits) {
        if (b.groupIndex < 0 || b.groupIndex >= design.numGroups()) {
            r->fail("routed bit group index out of range");
        }
        const SignalGroup& g =
            design.groups[static_cast<size_t>(b.groupIndex)];
        if (b.bitIndex < 0 || b.bitIndex >= g.width()) {
            r->fail("routed bit index out of range");
        }
        const Bit& bit = g.bits[static_cast<size_t>(b.bitIndex)];
        if (b.topo.pins() != bit.pins || b.topo.driverIndex() != bit.driver) {
            r->fail("routed topology does not match its design bit");
        }
        if (b.hLayer < 0 || b.hLayer >= design.grid.numLayers() ||
            design.grid.layerDir(b.hLayer) != grid::Dir::Horizontal) {
            r->fail("routed bit horizontal layer invalid");
        }
        if (b.vLayer < 0 || b.vLayer >= design.grid.numLayers() ||
            design.grid.layerDir(b.vLayer) != grid::Dir::Vertical) {
            r->fail("routed bit vertical layer invalid");
        }
        if (!seen.emplace(b.groupIndex, b.bitIndex).second) {
            r->fail("bit routed twice");
        }
    }
    for (const auto& [g, bIdx] : c.unroutedBits) {
        if (g < 0 || g >= design.numGroups()) {
            r->fail("unrouted group index out of range");
        }
        if (bIdx < 0 ||
            bIdx >= design.groups[static_cast<size_t>(g)].width()) {
            r->fail("unrouted bit index out of range");
        }
        if (!seen.emplace(g, bIdx).second) {
            r->fail("bit both routed and unrouted");
        }
    }
    if (static_cast<int>(seen.size()) != design.numNets()) {
        r->fail("bits missing from the routed/unrouted partition");
    }
    if (!c.groupDistanceBefore.empty() &&
        static_cast<int>(c.groupDistanceBefore.size()) !=
            design.numGroups()) {
        r->fail("distance flag vector size mismatch");
    }
    if (c.groupDistanceAfter.size() != c.groupDistanceBefore.size()) {
        r->fail("distance flag vector size mismatch");
    }

    // Usage integrity: the stored aggregate must equal a recompute from
    // the stored topologies (the same invariant the flow's deep auditor
    // maintains for live results).
    std::map<int, int> edgeUse;
    std::map<int, int> viaUse;
    for (const RoutedBit& b : c.bits) {
        for (const auto& [e, n] :
             computeEdgeUse(design.grid, b.topo, b.hLayer, b.vLayer)) {
            edgeUse[e] += n;
        }
        if (design.grid.viaLimited()) {
            for (const auto& [cell, n] : computeViaUse(design.grid, b.topo)) {
                viaUse[cell] += n;
            }
        }
    }
    const std::vector<std::pair<int, int>> recomputed(edgeUse.begin(),
                                                      edgeUse.end());
    if (recomputed != c.usagePairs) {
        r->fail("stored edge usage does not match the stored topologies");
    }
    if (!design.grid.viaLimited() && !c.viaUsagePairs.empty()) {
        r->fail("via usage stored without the via model");
    }
    if (design.grid.viaLimited()) {
        const std::vector<std::pair<int, int>> recomputedVias(viaUse.begin(),
                                                              viaUse.end());
        if (recomputedVias != c.viaUsagePairs) {
            r->fail("stored via usage does not match the stored topologies");
        }
    }
}

}  // namespace

std::vector<std::pair<int, int>> unroutedBits(const StreakResult& result) {
    std::vector<std::pair<int, int>> out;
    out.reserve(result.routed.unroutedMembers.size());
    for (const auto& [objIdx, member] : result.routed.unroutedMembers) {
        const RoutingObject& obj =
            result.problem.objects[static_cast<size_t>(objIdx)];
        out.emplace_back(obj.groupIndex,
                         obj.bitIndices[static_cast<size_t>(member)]);
    }
    std::sort(out.begin(), out.end());
    return out;
}

Checkpoint makeCheckpoint(const Design& design, const StreakOptions& opts,
                          const StreakResult& result) {
    Checkpoint c;
    c.design = std::make_unique<Design>(design);
    c.opts = semanticOptions(opts);
    c.chosen = result.solverSolution.chosen;
    c.bits = result.routed.bits;
    c.unroutedBits = unroutedBits(result);
    for (int e = 0; e < design.grid.numEdges(); ++e) {
        const int u = result.routed.usage.usage(e);
        if (u > 0) c.usagePairs.emplace_back(e, u);
    }
    if (design.grid.viaLimited()) {
        for (int cell = 0; cell < design.grid.numCells(); ++cell) {
            const int u = result.routed.usage.viaUsage(cell);
            if (u > 0) c.viaUsagePairs.emplace_back(cell, u);
        }
    }
    c.groupDistanceBefore = result.groupDistanceBefore;
    c.groupDistanceAfter = result.groupDistanceAfter;
    c.metrics = result.metrics;
    c.distanceViolationsBefore = result.distanceViolationsBefore;
    c.distanceViolationsAfter = result.distanceViolationsAfter;
    c.pdIterations = result.pdIterations;
    c.hitTimeLimit = result.hitTimeLimit;
    return c;
}

void writeCheckpoint(const Checkpoint& ckpt, std::ostream& os) {
    const Design& design = *ckpt.design;

    std::string buf;
    buf.append(kMagic, sizeof(kMagic));
    putU32(&buf, static_cast<std::uint32_t>(kCheckpointVersion));

    // Informational JSON header: lets `file`-style tooling and humans see
    // what a checkpoint holds without decoding the binary payload. The
    // authoritative data (bit-exact doubles included) is the payload.
    obs::json::Object header;
    header.set("schema", kCheckpointSchema);
    header.set("schemaVersion", kCheckpointVersion);
    header.set("design", design.name);
    header.set("groups", design.numGroups());
    header.set("bits", design.numNets());
    header.set("routedBits", static_cast<int>(ckpt.bits.size()));
    putStr(&buf, obs::json::Value(std::move(header)).dump());

    writeGrid(&buf, design.grid);
    putStr(&buf, design.name);
    putU32(&buf, static_cast<std::uint32_t>(design.groups.size()));
    for (const SignalGroup& g : design.groups) {
        putStr(&buf, g.name);
        putU32(&buf, static_cast<std::uint32_t>(g.bits.size()));
        for (const Bit& b : g.bits) {
            putStr(&buf, b.name);
            putI32(&buf, b.driver);
            putU32(&buf, static_cast<std::uint32_t>(b.pins.size()));
            for (const geom::Point p : b.pins) {
                putI32(&buf, p.x);
                putI32(&buf, p.y);
            }
        }
    }
    writeOptions(&buf, ckpt.opts);
    putU32(&buf, static_cast<std::uint32_t>(ckpt.chosen.size()));
    for (const int c : ckpt.chosen) putI32(&buf, c);
    putU32(&buf, static_cast<std::uint32_t>(ckpt.bits.size()));
    for (const RoutedBit& b : ckpt.bits) {
        putI32(&buf, b.groupIndex);
        putI32(&buf, b.bitIndex);
        putI32(&buf, b.objectIndex);
        putI32(&buf, b.memberIndex);
        putI32(&buf, b.clusterKey);
        putI32(&buf, b.hLayer);
        putI32(&buf, b.vLayer);
        writeTopology(&buf, b.topo);
    }
    putPairs(&buf, ckpt.unroutedBits);
    putPairs(&buf, ckpt.usagePairs);
    putPairs(&buf, ckpt.viaUsagePairs);
    putFlags(&buf, ckpt.groupDistanceBefore);
    putFlags(&buf, ckpt.groupDistanceAfter);
    putI32(&buf, ckpt.metrics.totalBits);
    putI32(&buf, ckpt.metrics.routedBits);
    putF64(&buf, ckpt.metrics.routability);
    putI64(&buf, ckpt.metrics.wirelength);
    putF64(&buf, ckpt.metrics.avgRegularity);
    putI64(&buf, ckpt.metrics.totalOverflow);
    putI32(&buf, ckpt.metrics.overflowedEdges);
    putI64(&buf, ckpt.metrics.totalViaOverflow);
    putI32(&buf, ckpt.distanceViolationsBefore);
    putI32(&buf, ckpt.distanceViolationsAfter);
    putI32(&buf, ckpt.pdIterations);
    putU8(&buf, ckpt.hitTimeLimit ? 1 : 0);

    putU64(&buf, fnv1a(std::string_view(buf)));
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void writeCheckpointFile(const Checkpoint& ckpt, const std::string& path) {
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        robust::StreakError err;
        err.kind = robust::ErrorKind::InvalidInput;
        err.site = "eco/read";
        err.message = "checkpoint: cannot open " + path + " for writing";
        robust::raise(std::move(err));
    }
    writeCheckpoint(ckpt, os);
}

Checkpoint readCheckpointBuffer(std::string_view data) {
    STREAK_FAULT_POINT("eco/read");
    Reader r(data);
    if (data.size() < sizeof(kMagic) + 4 + 8) r.fail("file too short");
    if (data.substr(0, sizeof(kMagic)) !=
        std::string_view(kMagic, sizeof(kMagic))) {
        r.fail("bad magic");
    }
    // Verify the trailing checksum before trusting any field: a flipped
    // bit anywhere surfaces here as one structured error.
    const std::uint64_t stored = [&] {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                     data[data.size() - 8 + static_cast<size_t>(i)]))
                 << (8 * i);
        }
        return v;
    }();
    if (fnv1a(data.substr(0, data.size() - 8)) != stored) {
        r.fail("checksum mismatch");
    }

    Reader p(data.substr(0, data.size() - 8));
    (void)p.view(sizeof(kMagic));
    const std::uint32_t version = p.u32();
    if (version != static_cast<std::uint32_t>(kCheckpointVersion)) {
        p.fail("unsupported checkpoint version " + std::to_string(version));
    }
    const std::string headerText = p.str();
    std::string jsonError;
    const obs::json::Value header = obs::json::parse(headerText, &jsonError);
    if (!jsonError.empty()) p.fail("header is not valid JSON: " + jsonError);
    const obs::json::Value* schema = header.find("schema");
    if (schema == nullptr || schema->kind() != obs::json::Kind::String ||
        schema->asString() != kCheckpointSchema) {
        p.fail("header schema mismatch");
    }

    Checkpoint c;
    // Design is an aggregate whose grid has no default constructor, so
    // the grid must be parsed before the Design can exist.
    grid::RoutingGrid parsedGrid = readGrid(&p);
    c.design = std::make_unique<Design>(
        Design{std::string(), std::move(parsedGrid), {}});
    c.design->name = p.str();
    const std::uint32_t numGroups = p.count(5, "group");
    c.design->groups.reserve(numGroups);
    for (std::uint32_t g = 0; g < numGroups; ++g) {
        SignalGroup group;
        group.name = p.str();
        const std::uint32_t numBits = p.count(12, "bit");
        group.bits.reserve(numBits);
        for (std::uint32_t b = 0; b < numBits; ++b) {
            Bit bit;
            bit.name = p.str();
            bit.driver = p.i32();
            const std::uint32_t numPins = p.count(8, "pin");
            if (numPins == 0) p.fail("bit with no pins");
            bit.pins.reserve(numPins);
            for (std::uint32_t i = 0; i < numPins; ++i) {
                const geom::Point pt{p.i32(), p.i32()};
                if (!c.design->grid.contains(pt)) {
                    p.fail("pin outside the grid");
                }
                bit.pins.push_back(pt);
            }
            if (bit.driver < 0 ||
                static_cast<std::uint32_t>(bit.driver) >= numPins) {
                p.fail("driver index out of range");
            }
            group.bits.push_back(std::move(bit));
        }
        c.design->groups.push_back(std::move(group));
    }
    readOptions(&p, &c.opts);
    const std::uint32_t numChosen = p.count(4, "chosen");
    c.chosen.reserve(numChosen);
    for (std::uint32_t i = 0; i < numChosen; ++i) {
        const int v = p.i32();
        if (v < -1) p.fail("chosen candidate index out of range");
        c.chosen.push_back(v);
    }
    const std::uint32_t numBits = p.count(7 * 4 + 4 + 4 + 4, "routed bit");
    c.bits.reserve(numBits);
    for (std::uint32_t i = 0; i < numBits; ++i) {
        RoutedBit b;
        b.groupIndex = p.i32();
        b.bitIndex = p.i32();
        b.objectIndex = p.i32();
        b.memberIndex = p.i32();
        b.clusterKey = p.i32();
        b.hLayer = p.i32();
        b.vLayer = p.i32();
        if (b.hLayer < 0 || b.hLayer >= c.design->grid.numLayers() ||
            b.vLayer < 0 || b.vLayer >= c.design->grid.numLayers()) {
            p.fail("routed bit layer out of range");
        }
        b.topo = readTopology(&p, c.design->grid);
        c.bits.push_back(std::move(b));
    }
    const auto readPairList = [&p](const char* what) {
        const std::uint32_t n = p.count(8, what);
        std::vector<std::pair<int, int>> out;
        out.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            const int a = p.i32();
            const int v = p.i32();
            out.emplace_back(a, v);
        }
        return out;
    };
    c.unroutedBits = readPairList("unrouted bit");
    c.usagePairs = readPairList("usage");
    c.viaUsagePairs = readPairList("via usage");
    const auto readFlagList = [&p](const char* what) {
        const std::uint32_t n = p.count(1, what);
        std::vector<char> out;
        out.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            out.push_back(p.u8() != 0 ? 1 : 0);
        }
        return out;
    };
    c.groupDistanceBefore = readFlagList("distance flag");
    c.groupDistanceAfter = readFlagList("distance flag");
    c.metrics.totalBits = p.i32();
    c.metrics.routedBits = p.i32();
    c.metrics.routability = p.f64();
    c.metrics.wirelength = p.i64();
    c.metrics.avgRegularity = p.f64();
    c.metrics.totalOverflow = p.i64();
    c.metrics.overflowedEdges = p.i32();
    c.metrics.totalViaOverflow = p.i64();
    c.distanceViolationsBefore = p.i32();
    c.distanceViolationsAfter = p.i32();
    c.pdIterations = p.i32();
    c.hitTimeLimit = p.u8() != 0;
    if (p.remaining() != 0) p.fail("trailing bytes after payload");
    if (!std::isfinite(c.metrics.routability) ||
        !std::isfinite(c.metrics.avgRegularity)) {
        p.fail("non-finite metric");
    }

    validateCheckpoint(&p, c);
    return c;
}

Checkpoint readCheckpoint(std::istream& is) {
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string data = buf.str();
    return readCheckpointBuffer(data);
}

Checkpoint readCheckpointFile(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        robust::StreakError err;
        err.kind = robust::ErrorKind::InvalidInput;
        err.site = "eco/read";
        err.message = "checkpoint: cannot open " + path;
        robust::raise(std::move(err));
    }
    return readCheckpoint(is);
}

}  // namespace streak::eco
