#include "eco/eco.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>

#include "flow/report.hpp"
#include "robust/error.hpp"

namespace streak::eco {

namespace {

[[nodiscard]] bool bitsEqual(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Per-group cluster partition: each cluster as its sorted bit indices,
/// clusters sorted for set comparison. Raw cluster keys are run-local
/// (the solver uses object indices, post clustering assigns fresh ones),
/// so equivalence is over the partition, not the key values.
[[nodiscard]] std::map<int, std::vector<std::vector<int>>> clusterPartition(
    const std::vector<RoutedBit>& bits) {
    std::map<int, std::map<int, std::vector<int>>> byKey;
    for (const RoutedBit& b : bits) {
        byKey[b.groupIndex][b.clusterKey].push_back(b.bitIndex);
    }
    std::map<int, std::vector<std::vector<int>>> out;
    for (auto& [group, clusters] : byKey) {
        std::vector<std::vector<int>>& list = out[group];
        for (auto& [key, members] : clusters) {
            std::sort(members.begin(), members.end());
            list.push_back(std::move(members));
        }
        std::sort(list.begin(), list.end());
    }
    return out;
}

}  // namespace

EcoResult runEco(const Checkpoint& ckpt, const std::vector<Delta>& deltas,
                 int threadsOverride) {
    EcoResult r;
    r.design = std::make_unique<Design>(*ckpt.design);
    for (const Delta& d : deltas) applyDelta(r.design.get(), d);
    StreakOptions opts = ckpt.opts;
    if (threadsOverride >= 0) opts.threads = threadsOverride;

    FlowResult flow = runStreak(*r.design, opts);
    if (!flow.ok()) robust::raise(flow.error());
    r.sub = std::make_unique<StreakResult>(std::move(flow).value());
    r.metrics = r.sub->metrics;
    r.distanceViolationsBefore = r.sub->distanceViolationsBefore;
    r.distanceViolationsAfter = r.sub->distanceViolationsAfter;
    r.totalGroups = r.design->numGroups();
    r.resolvedGroups.resize(static_cast<size_t>(r.totalGroups));
    std::iota(r.resolvedGroups.begin(), r.resolvedGroups.end(), 0);
    return r;
}

Checkpoint makeCheckpoint(const EcoResult& eco, const StreakOptions& opts) {
    return makeCheckpoint(*eco.design, opts, *eco.sub);
}

bool equivalent(const EcoResult& eco, const StreakResult& cold,
                std::string* diff) {
    const auto mismatch = [diff](const std::string& what) {
        if (diff != nullptr) *diff = what;
        return false;
    };
    const StreakResult& inc = *eco.sub;
    const Metrics& a = inc.metrics;
    const Metrics& b = cold.metrics;
    if (a.totalBits != b.totalBits || a.routedBits != b.routedBits ||
        !bitsEqual(a.routability, b.routability)) {
        return mismatch("bit counts or routability differ");
    }
    if (a.wirelength != b.wirelength ||
        !bitsEqual(a.avgRegularity, b.avgRegularity)) {
        return mismatch("wirelength or avgRegularity differs");
    }
    if (a.totalOverflow != b.totalOverflow ||
        a.overflowedEdges != b.overflowedEdges ||
        a.totalViaOverflow != b.totalViaOverflow) {
        return mismatch("overflow differs");
    }
    if (inc.distanceViolationsBefore != cold.distanceViolationsBefore ||
        inc.distanceViolationsAfter != cold.distanceViolationsAfter) {
        return mismatch("distance violation counts differ");
    }
    if (inc.groupDistanceBefore != cold.groupDistanceBefore ||
        inc.groupDistanceAfter != cold.groupDistanceAfter) {
        return mismatch("per-group distance flags differ");
    }

    const auto byKey = [](const std::vector<RoutedBit>& bits) {
        std::map<std::pair<int, int>, const RoutedBit*> out;
        for (const RoutedBit& b : bits) out[{b.groupIndex, b.bitIndex}] = &b;
        return out;
    };
    const auto incBits = byKey(inc.routed.bits);
    const auto coldBits = byKey(cold.routed.bits);
    if (incBits.size() != inc.routed.bits.size() ||
        coldBits.size() != cold.routed.bits.size() ||
        incBits.size() != coldBits.size()) {
        return mismatch("routed bit sets differ in size or hold duplicates");
    }
    for (const auto& [key, incBit] : incBits) {
        const std::string where = "bit (" + std::to_string(key.first) +
                                  ", " + std::to_string(key.second) + ")";
        const auto it = coldBits.find(key);
        if (it == coldBits.end()) {
            return mismatch(where + " routed by the ECO run but not cold");
        }
        const RoutedBit& coldBit = *it->second;
        if (!(incBit->topo == coldBit.topo) ||
            incBit->hLayer != coldBit.hLayer ||
            incBit->vLayer != coldBit.vLayer) {
            return mismatch("topology or trunk layers of " + where +
                            " differ");
        }
    }
    if (clusterPartition(inc.routed.bits) !=
        clusterPartition(cold.routed.bits)) {
        return mismatch("per-group cluster partitions differ");
    }
    if (unroutedBits(inc) != unroutedBits(cold)) {
        return mismatch("unrouted bit sets differ");
    }

    const grid::RoutingGrid& grid = eco.design->grid;
    for (int e = 0; e < grid.numEdges(); ++e) {
        if (inc.routed.usage.usage(e) != cold.routed.usage.usage(e)) {
            return mismatch("edge " + std::to_string(e) + " usage differs");
        }
    }
    if (grid.viaLimited()) {
        for (int cell = 0; cell < grid.numCells(); ++cell) {
            if (inc.routed.usage.viaUsage(cell) !=
                cold.routed.usage.viaUsage(cell)) {
                return mismatch("cell " + std::to_string(cell) +
                                " via usage differs");
            }
        }
    }
    return true;
}

obs::json::Value buildEcoReport(const EcoResult& eco,
                                const StreakOptions& opts, double seconds) {
    obs::json::Object document =
        flow::buildRunReport(*eco.design, opts, *eco.sub).asObject();
    obs::json::Object section;
    section.set("totalGroups", eco.totalGroups);
    section.set("resolvedGroups",
                static_cast<int>(eco.resolvedGroups.size()));
    section.set("seconds", seconds);
    document.set("eco", std::move(section));
    return obs::json::Value(std::move(document));
}

}  // namespace streak::eco
