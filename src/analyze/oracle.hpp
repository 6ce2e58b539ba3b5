// Static oracle: what an unmodified machine *will* do with a g-code
// program, derived without running the event-loop simulation.
//
// The oracle folds the firmware's pure translation layer
// (`fw::kinematics`) over a parsed program, reproducing exactly the step
// quantization the real dispatch loop performs: modal absolute/relative
// resolution, G92 datum shifts, software-endstop clamping, M220/M221
// percentages, cold-extrusion stripping, and G2/G3 arc-to-chord
// expansion.  Because step counts are a pure function of the program (the
// firmware's timing jitter moves pulses in time, never in count), the
// oracle predicts the OFFRAMPS capture's final per-axis counters to
// within the homing debounce (a couple of steps on Z).
//
// Counter semantics mirror the FPGA's AxisTracker: counts are signed
// (DIR-weighted) and armed once the program has homed all three axes -
// the same activation point the paper's monitoring uses.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fw/config.hpp"
#include "fw/kinematics.hpp"

namespace offramps::analyze {

/// Kind of one resolved motion segment (after arc expansion).
enum class SegmentKind : std::uint8_t {
  kTravel,      // motion without filament advance
  kExtrusion,   // motion with positive filament advance
  kRetraction,  // negative filament advance (with or without motion)
  kEOnly,       // positive filament advance without motion
};

/// One resolved motion segment of the program.
struct SegmentRecord {
  /// Index of the originating command in the analyzed program (arc
  /// chords share their G2/G3's index).
  std::size_t command_index = 0;
  std::array<std::int64_t, 4> delta_steps{};
  double path_mm = 0.0;     // XYZ path length
  double e_mm = 0.0;        // filament advance (after flow scaling)
  double feed_mm_s = 0.0;   // requested path feedrate
  SegmentKind kind = SegmentKind::kTravel;
  bool counted = false;     // executed with the step counters armed

  /// Expected extrusion-per-distance ratio (filament mm per path mm);
  /// 0 for segments without XYZ motion.
  [[nodiscard]] double e_per_mm() const {
    return path_mm > 1e-12 ? e_mm / path_mm : 0.0;
  }
};

/// The static oracle for one program.
struct Oracle {
  /// Expected final counter values, as the OFFRAMPS AxisTracker would
  /// accumulate them: signed steps per axis, counting from the moment
  /// the program has homed all three axes.
  std::array<std::int64_t, 4> expected_counts{};
  /// Total step pulses (|delta| summed) per axis over the armed window.
  std::array<std::uint64_t, 4> total_pulses{};
  /// True when the program homes all three axes (counters ever arm).
  bool counters_armed = false;
  /// Command index after which the counters armed.
  std::size_t armed_at_command = 0;

  double extruded_mm = 0.0;        // total positive filament advance
  double retracted_mm = 0.0;       // total negative advance (abs)
  double extrusion_path_mm = 0.0;  // XYZ distance while extruding
  std::uint64_t move_count = 0;          // all motion segments
  std::uint64_t extrusion_move_count = 0;
  /// Largest single stationary positive E advance (mm) observed after
  /// printing started - the legitimate un-retract/prime budget a
  /// dynamic blob check may allow.
  double max_stationary_e_mm = 0.0;

  /// Per-segment trace in execution order (arc chords expanded).
  std::vector<SegmentRecord> segments;

  /// Final interpreter state after the whole program.
  fw::MotionState final_state{};
};

}  // namespace offramps::analyze
