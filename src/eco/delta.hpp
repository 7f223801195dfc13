// ECO deltas: the four design edits `streak eco` understands.
//
// A delta script is line oriented ('#' comments, blank lines ignored):
//
//   MOVEPIN <group> <bit> <pin> <x> <y>
//   ADDBLOCKAGE <lox> <loy> <hix> <hiy> <layer> <remainingCap>
//   REMOVEBLOCKAGE <lox> <loy> <hix> <hiy> <layer>
//   RESIZECAPACITY <lox> <loy> <hix> <hiy> <layer> <capacity>
//
// applyDelta() validates against the target design (indices in range,
// coordinates inside the grid) and mutates it in place; a violation is a
// structured robust::StreakError (kind invalid-input), never a partial
// mutation — validation completes before the first write.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/signal.hpp"
#include "geom/rect.hpp"

namespace streak::eco {

enum class DeltaKind {
    MovePin,         ///< relocate one pin of one bit
    AddBlockage,     ///< cap edges in a rect down to `capacity`
    RemoveBlockage,  ///< restore edges in a rect to the grid default
    ResizeCapacity,  ///< set edges in a rect to exactly `capacity`
};

[[nodiscard]] const char* deltaKindName(DeltaKind kind);

struct Delta {
    DeltaKind kind = DeltaKind::MovePin;
    // MovePin fields.
    int group = 0;
    int bit = 0;
    int pin = 0;
    geom::Point to{};
    // Rect-delta fields (AddBlockage / RemoveBlockage / ResizeCapacity).
    geom::Rect area{};
    int layer = 0;
    int capacity = 0;
};

/// Validate `delta` against `design` and apply it in place.
void applyDelta(Design* design, const Delta& delta);

/// Parse a delta script. Raises robust::StreakException (kind
/// invalid-input, site "eco/read") with line context on malformed input.
[[nodiscard]] std::vector<Delta> parseDeltaScript(std::istream& is);
[[nodiscard]] std::vector<Delta> parseDeltaScriptFile(
    const std::string& path);

}  // namespace streak::eco
