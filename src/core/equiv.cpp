#include "core/equiv.hpp"

#include <cstdlib>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace streak {

namespace {

/// Map one coordinate axis: for each distinct backbone coordinate, find
/// the nearest representative pin on that axis and carry the (usually
/// zero, by the Hanan property) offset over to the mapped member pin.
std::unordered_map<int, int> buildAxisMap(
    const std::vector<int>& coords, const std::vector<int>& repCoords,
    const std::vector<int>& memberCoords) {
    std::unordered_map<int, int> map;
    for (const int c : coords) {
        if (map.contains(c)) continue;
        int bestPin = 0;
        int bestDist = std::numeric_limits<int>::max();
        for (size_t i = 0; i < repCoords.size(); ++i) {
            const int d = std::abs(repCoords[i] - c);
            if (d < bestDist) {
                bestDist = d;
                bestPin = static_cast<int>(i);
            }
        }
        const int offset = c - repCoords[static_cast<size_t>(bestPin)];
        map.emplace(c, memberCoords[static_cast<size_t>(bestPin)] + offset);
    }
    return map;
}

/// The member-independent part of Algorithm 1 for one backbone: its
/// feature structure and the distinct coordinates the axis maps need.
struct BackboneFrame {
    steiner::TopoStructure st;
    std::vector<int> xs;
    std::vector<int> ys;
};

BackboneFrame frameOf(const steiner::Topology& backbone) {
    // Remap at the *structure* level: only the feature nodes (pins, bends,
    // junctions) move, and each straight RC is redrawn between its mapped
    // endpoints. Feature-node coordinates lie on the Hanan grid of the
    // representative pins, so the axis maps are exact there; remapping
    // interior wire coordinates instead would create overhangs whenever
    // bits of one object are stretched differently.
    BackboneFrame f{backbone.structure(), {}, {}};
    std::unordered_set<int> xSeen, ySeen;
    const auto note = [&](geom::Point p) {
        if (xSeen.insert(p.x).second) f.xs.push_back(p.x);
        if (ySeen.insert(p.y).second) f.ys.push_back(p.y);
    };
    for (const auto& n : f.st.nodes) note(n.pt);
    for (const geom::Point p : backbone.pins()) note(p);
    return f;
}

steiner::Topology equivalentFromFrame(const BackboneFrame& frame,
                                      const steiner::Topology& backbone,
                                      const SignalGroup& group,
                                      const RoutingObject& object,
                                      int memberIndex) {
    const Bit& member = group.bits[static_cast<size_t>(
        object.bitIndices[static_cast<size_t>(memberIndex)])];
    const std::vector<int>& pinMap =
        object.pinMaps[static_cast<size_t>(memberIndex)];
    const std::vector<geom::Point>& repPins = backbone.pins();

    // memberOfRep[r] = member pin corresponding to representative pin r.
    std::vector<int> memberOfRep(repPins.size(), -1);
    for (size_t i = 0; i < pinMap.size(); ++i) {
        memberOfRep[static_cast<size_t>(pinMap[i])] = static_cast<int>(i);
    }

    // Axis-wise coordinate pools: representative pin coordinate -> the
    // corresponding member pin coordinate.
    std::vector<int> repXs, repYs, memXs, memYs;
    for (size_t r = 0; r < repPins.size(); ++r) {
        const int m = memberOfRep[r];
        if (m < 0) continue;  // cannot happen for proper objects
        repXs.push_back(repPins[r].x);
        repYs.push_back(repPins[r].y);
        memXs.push_back(member.pins[static_cast<size_t>(m)].x);
        memYs.push_back(member.pins[static_cast<size_t>(m)].y);
    }

    const auto xMap = buildAxisMap(frame.xs, repXs, memXs);
    const auto yMap = buildAxisMap(frame.ys, repYs, memYs);
    const auto mapPt = [&](geom::Point p) -> geom::Point {
        return {xMap.at(p.x), yMap.at(p.y)};
    };

    const steiner::TopoStructure& st = frame.st;
    steiner::Topology out(member.pins, member.driver);
    for (const auto& [u, v] : st.rcs) {
        out.addSegment({mapPt(st.nodes[static_cast<size_t>(u)].pt),
                        mapPt(st.nodes[static_cast<size_t>(v)].pt)});
    }
    // If a mapped pin landed away from the member's actual pin (possible
    // when two representative pins share a coordinate but their member
    // counterparts do not), stitch it in with a short L-shape.
    for (size_t i = 0; i < member.pins.size(); ++i) {
        const int r = pinMap[i];
        const geom::Point mapped = mapPt(repPins[static_cast<size_t>(r)]);
        const geom::Point actual = member.pins[i];
        if (mapped != actual) {
            out.addLShape(actual, mapped, {mapped.x, actual.y});
        }
    }
    return out;
}

}  // namespace

steiner::Topology equivalentTopology(const steiner::Topology& backbone,
                                     const SignalGroup& group,
                                     const RoutingObject& object,
                                     int memberIndex) {
    return equivalentFromFrame(frameOf(backbone), backbone, group, object,
                               memberIndex);
}

std::vector<steiner::Topology> equivalentTopologies(
    const steiner::Topology& backbone, const SignalGroup& group,
    const RoutingObject& object) {
    const BackboneFrame frame = frameOf(backbone);
    std::vector<steiner::Topology> out;
    out.reserve(object.bitIndices.size());
    for (int k = 0; k < object.width(); ++k) {
        out.push_back(equivalentFromFrame(frame, backbone, group, object, k));
    }
    return out;
}

}  // namespace streak
