// Static-oracle cross-check: compares a runtime OFFRAMPS capture against
// the *static* step-count oracle computed from the g-code alone
// (analyze::analyze_program), instead of against a golden capture from a
// reference print.
//
// Because firmware step counts are a pure function of the program (timing
// jitter moves pulses in time, never in count), the static prediction
// matches a clean print's final counters to within the homing debounce.
// That lets this check run a far tighter margin than the paper's 5%
// golden-capture comparison - tight enough to catch the stealthiest
// shipped reduction Trojan (2% extrusion loss) without ever printing a
// reference part.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "analyze/oracle.hpp"
#include "core/capture.hpp"

namespace offramps::detect {

/// Tuning for the static cross-check.
struct StaticCheckOptions {
  /// Per-axis relative margin, percent.  Static-vs-runtime counts agree
  /// near-exactly on clean prints, so this can be far below the golden
  /// comparison's 5%.
  double margin_pct = 0.5;
  /// Absolute per-axis slack in steps, covering homing-debounce trigger
  /// noise (a couple of steps on Z) regardless of count magnitude.
  std::int64_t slack_steps = 8;
};

/// One axis whose observed final count disagrees with the static oracle.
struct StaticMismatch {
  std::size_t axis = 0;            // 0..3 = X, Y, Z, E
  std::int64_t expected = 0;       // static oracle
  std::int64_t observed = 0;       // capture final count
  double percent = 0.0;            // |diff| / max(|expected|, 1) * 100
};

/// Cross-check verdict.
struct StaticCheckReport {
  std::vector<StaticMismatch> mismatches;
  double largest_percent = 0.0;
  /// False when the oracle's counters never armed (program does not home
  /// all axes) - the check cannot run and the verdict is inconclusive.
  bool oracle_armed = false;
  /// False when the capture was aborted mid-print (counts incomparable).
  bool print_completed = false;
  bool trojan_suspected = false;
};

/// Compares the capture's final counters against the static oracle's
/// expected counts.  An aborted print or a never-armed oracle yields
/// trojan_suspected = true with the corresponding flag cleared, so the
/// caller can distinguish "diverged" from "could not compare".
StaticCheckReport static_check(const analyze::Oracle& oracle,
                               const core::Capture& capture,
                               const StaticCheckOptions& options = {});

}  // namespace offramps::detect
