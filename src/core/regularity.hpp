// Regularity evaluation (Sec. III-B3, Eq. 2 and Eq. 9).
//
// Objects of one group cannot always share a single topology; the
// regularity ratio quantifies how similar two topologies are by matching
// their feature points (pins and bends) through driver-weighted similarity
// vectors and counting preserved rectilinear connections.
#pragma once

#include <utility>
#include <vector>

#include "core/similarity.hpp"
#include "steiner/topology.hpp"

namespace streak {

/// Everything Ratio() reads of one topology: its feature points, their
/// driver-weighted similarity vectors and its RCs. Building a view costs
/// a structure() extraction plus O(P^2) similarity work, so callers that
/// evaluate one topology against many build its view once.
struct RegularityView {
    RegularityView() = default;
    explicit RegularityView(const steiner::Topology& t);

    std::vector<geom::Point> points;
    std::vector<SimilarityVector> svs;
    /// RCs as (node index, node index), in structure() order.
    std::vector<std::pair<int, int>> rcs;
    /// The same RCs as sorted, unique (min, max) node pairs.
    std::vector<std::pair<int, int>> rcKeys;
};

/// Ratio(t1, t2) of Eq. (2): matched RCs over the smaller RC count, in
/// [0, 1]. Topologies without any RC (single-point bits) are trivially
/// regular (ratio 1).
[[nodiscard]] double regularityRatio(const RegularityView& a,
                                     const RegularityView& b);

/// Ratio(t1, t2) from the topologies themselves (builds both views).
[[nodiscard]] double regularityRatio(const steiner::Topology& t1,
                                     const steiner::Topology& t2);

/// Reg of Eq. (9): mean pairwise ratio over the given object solutions of
/// one group. Groups with fewer than two objects are trivially regular
/// (returns 1).
[[nodiscard]] double groupRegularity(
    const std::vector<const steiner::Topology*>& objectTopologies);

}  // namespace streak
