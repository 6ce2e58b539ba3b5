// Golden-free Trojan detection (the paper's Discussion names "new
// golden-free methods for detection" as the platform's next step).
//
// Instead of comparing against a verified reference capture, the monitor
// checks *physical plausibility invariants* of the transaction stream -
// properties any legitimate FFF print must satisfy regardless of the
// part being printed:
//
//   R1 kinematics   - per-window count deltas cannot exceed the machine's
//                     configured axis speed limits;
//   R2 build volume - cumulative positions must stay inside the machine;
//   R3 E monotone   - net filament cannot go meaningfully negative;
//   R4 density      - while XY moves and E advances, the implied
//                     extrusion width must be physically printable
//                     (catches flow-scaling Trojans like Flaw3D
//                     reduction);
//   R5 blobs        - sustained filament advance with no XY motion is a
//                     blob dump (catches relocation Trojans);
//   R6 layer height - Z advances between printing phases must look like
//                     layers, not arbitrary lifts.
//
// The capture reflects the firmware-side signals, so - like the paper's
// golden comparison - this detects g-code/firmware-level manipulation;
// Trojans downstream of the tap need the golden-free *part* checks
// instead.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/capture.hpp"

namespace offramps::detect {

/// Machine description needed to interpret counts physically.
struct MachineModel {
  std::array<double, 4> steps_per_mm = {100.0, 100.0, 400.0, 280.0};
  std::array<double, 4> max_feedrate_mm_s = {200.0, 200.0, 12.0, 120.0};
  std::array<double, 3> axis_length_mm = {250.0, 210.0, 210.0};
  /// Printable extrusion-width band: implied width outside
  /// [min, max] x nominal is implausible.
  double nominal_line_width_mm = 0.45;
  double nominal_layer_height_mm = 0.25;
  double filament_diameter_mm = 1.75;
  double min_width_factor = 0.55;   // < 55% of nominal = starved
  double max_width_factor = 2.5;    // > 250% of nominal = flooded
  /// Layer heights outside this band are anomalous.
  double min_layer_height_mm = 0.04;
  double max_layer_height_mm = 0.6;
  /// Windows with less XY travel than this are ignored by the density
  /// rule (corner dwells, retraction windows).
  double min_window_travel_mm = 1.0;
  /// Blob rule: stationary filament advance is legitimate only while it
  /// repays earlier retraction (an un-retract); advance exceeding that
  /// budget by more than this is a dump.
  double blob_excess_mm = 0.3;
  /// Kinematics rule headroom over the configured maxima.
  double speed_margin = 1.15;
};

/// Rules a window can violate.
enum class Rule : std::uint8_t {
  kKinematics,
  kBuildVolume,
  kNegativeExtrusion,
  kDensityLow,
  kDensityHigh,
  kBlobDump,
  kLayerHeight,
};

const char* rule_name(Rule r);

/// One violated invariant.
struct Violation {
  Rule rule = Rule::kKinematics;
  std::uint32_t index = 0;  // transaction where it was observed
  double value = 0.0;       // measured quantity
  double bound = 0.0;       // the bound it broke
  std::string detail;
};

/// Golden-free analysis result.
struct GoldenFreeReport {
  std::vector<Violation> violations;
  std::size_t windows_checked = 0;
  std::size_t printing_windows = 0;  // windows with extrusion activity
  bool trojan_likely = false;

  [[nodiscard]] std::size_t count(Rule r) const;
  [[nodiscard]] std::string to_string(std::size_t max_lines = 8) const;
};

/// Incremental golden-free checker: feed transactions as they arrive and
/// read the violation tally at any point.  This is the engine behind
/// analyze_golden_free() and the golden-free channel of the fleet
/// service's online detector - all rule state (retraction debt, pending
/// Z rise, density batches) advances one window at a time, so cost per
/// transaction is O(1) and no capture history is retained.
class StreamingGoldenFree {
 public:
  explicit StreamingGoldenFree(MachineModel machine = {});

  /// Feeds the next transaction (windows form between consecutive ones).
  void push(const core::Transaction& txn);

  [[nodiscard]] std::size_t violation_count() const {
    return report_.violations.size();
  }
  [[nodiscard]] std::size_t windows_checked() const {
    return report_.windows_checked;
  }

  /// Snapshot of the analysis so far.  `min_violations` debounces
  /// isolated sampling artifacts, exactly as analyze_golden_free().
  [[nodiscard]] GoldenFreeReport report(std::size_t min_violations = 2) const;

 private:
  void check_window(const core::Transaction& prev,
                    const core::Transaction& cur);

  MachineModel machine_;
  GoldenFreeReport report_;
  bool have_prev_ = false;
  core::Transaction prev_{};
  double pending_z_rise_mm_ = 0.0;
  bool printing_seen_ = false;
  double retract_budget_mm_ = 0.0;  // filament owed back by un-retraction
  // Rolling per-second (10-window) accumulation for the density rule.
  double group_travel_ = 0.0;
  double group_e_ = 0.0;
  std::size_t group_n_ = 0;
  std::uint32_t group_start_index_ = 0;
};

/// Analyzes a finished capture against the machine model.
/// `min_violations` debounces isolated sampling artifacts.
GoldenFreeReport analyze_golden_free(const core::Capture& capture,
                                     const MachineModel& machine = {},
                                     std::size_t min_violations = 2);

}  // namespace offramps::detect
