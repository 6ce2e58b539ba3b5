// Fault-campaign harness.
//
// A campaign answers the robustness question the paper's Section V-C
// leaves qualitative: across a sweep of fault type x intensity, does the
// OFFRAMPS stack fail SAFE (somebody noticed and the run was stopped or
// flagged for a real deviation), fail SILENT (the part deviates and
// nobody noticed), cry WOLF (alarm with a fine part), or shrug the fault
// off entirely?  Every cell is one full print of the same program on a
// fresh rig, classified against a clean reference run, and the whole
// sweep serializes to machine-readable JSON for dashboards/CI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/compare.hpp"
#include "gcode/command.hpp"
#include "host/parallel_runner.hpp"
#include "host/rig.hpp"
#include "sim/fault.hpp"

namespace offramps::host {

/// How one campaign cell ended.
enum class CellOutcome : std::uint8_t {
  kClean,             // no deviation, no alarm: the stack absorbed the fault
  kFailSafe,          // real deviation AND it was detected (kill or alarm)
  kSilentCorruption,  // the part deviates (or the run wedged) unnoticed
  kFalseAlarm,        // alarm fired but the part is fine
};

const char* cell_outcome_name(CellOutcome o);

/// One cell's full outcome.
struct CellResult {
  sim::FaultSpec fault;
  CellOutcome outcome = CellOutcome::kClean;

  bool finished = false;
  bool killed = false;
  bool alarmed = false;
  std::string kill_reason;
  /// Worst relative deviation from the clean reference across the part
  /// metrics (deposited filament, motor steps, layer shift).
  double deviation = 0.0;
  std::size_t capture_transactions = 0;
  std::uint64_t crc_rejected = 0;
  std::uint64_t fault_events = 0;  // injector activity (glitches, flips...)
  double sim_seconds = 0.0;
};

/// A whole sweep plus its clean baseline.
struct CampaignReport {
  std::string program_label;
  std::size_t clean_transactions = 0;
  double clean_filament_mm = 0.0;
  std::vector<CellResult> cells;

  [[nodiscard]] std::size_t count(CellOutcome o) const;
  /// Serializes the report (schema documented in EXPERIMENTS.md,
  /// "Fault campaigns").
  [[nodiscard]] std::string to_json() const;
};

/// Campaign configuration.
struct FaultCampaignOptions {
  /// Base rig configuration reused for the reference and every cell
  /// (per-cell faults are layered on top).
  RigOptions rig{};
  detect::CompareOptions detect{};
  /// Relative deviation beyond which the part counts as corrupted.
  /// Default 3%: above known-good reprint drift, below any real layer
  /// shift or lost-step fault.
  double deviation_threshold = 0.03;
};

/// Runs fault sweeps of one g-code program.
class FaultCampaign {
 public:
  FaultCampaign(gcode::Program program, std::string label,
                FaultCampaignOptions options = {});

  /// Runs the clean reference print once, then the whole sweep with
  /// cells distributed over `pool`.  Each cell is an independent
  /// single-threaded Rig simulation, and results land in spec order, so
  /// the report is bit-identical for any worker count; a 1-worker pool
  /// runs the cells inline, one after another.
  [[nodiscard]] CampaignReport run(const std::vector<sim::FaultSpec>& specs,
                                   ParallelRunner& pool);

  /// The default acceptance sweep: every fault family (digital stuck &
  /// glitch, analog drift, UART corruption, timing jitter) at zero, low,
  /// and high intensity -- zero-intensity cells are the built-in
  /// false-positive control.
  [[nodiscard]] static std::vector<sim::FaultSpec> default_sweep();

  [[nodiscard]] const RunResult& reference() const { return reference_; }

 private:
  /// Runs the clean reference print (golden capture + part baseline),
  /// once: later calls return at once.
  void run_reference();

  /// Runs and classifies one faulted, monitor-observed print against the
  /// reference.  Const (and shared-state read-only), so the pool may
  /// call it concurrently for distinct specs.
  [[nodiscard]] CellResult evaluate_cell(const sim::FaultSpec& spec) const;

  [[nodiscard]] double deviation_from_reference(const RunResult& r) const;

  gcode::Program program_;
  std::string label_;
  FaultCampaignOptions options_;
  bool have_reference_ = false;
  core::Capture golden_;
  RunResult reference_;
};

}  // namespace offramps::host
