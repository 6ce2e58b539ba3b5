#include "detect/golden_free.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>

#include "detect/compare.hpp"

namespace offramps::detect {
namespace {

constexpr double kDefaultPeriodS = 0.1;

struct WindowDelta {
  std::array<double, 4> mm{};  // per-axis displacement
  double period_s = kDefaultPeriodS;
  double xy_travel() const { return std::hypot(mm[0], mm[1]); }
};

WindowDelta window_delta(const core::Transaction& prev,
                         const core::Transaction& cur,
                         const MachineModel& m) {
  WindowDelta d;
  for (std::size_t a = 0; a < 4; ++a) {
    d.mm[a] = static_cast<double>(cur.counts[a] - prev.counts[a]) /
              m.steps_per_mm[a];
  }
  if (cur.time_ns > prev.time_ns) {
    d.period_s = static_cast<double>(cur.time_ns - prev.time_ns) / 1e9;
  }
  return d;
}

double filament_area(const MachineModel& m) {
  return std::numbers::pi * m.filament_diameter_mm *
         m.filament_diameter_mm / 4.0;
}

/// Implied extrusion width for `e_mm` of filament over `travel_mm` of path
/// at the nominal layer height.
double implied_width(const MachineModel& m, double e_mm, double travel_mm) {
  return e_mm * filament_area(m) /
         (travel_mm * m.nominal_layer_height_mm);
}

}  // namespace

const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kKinematics: return "kinematic limit exceeded";
    case Rule::kBuildVolume: return "position outside build volume";
    case Rule::kNegativeExtrusion: return "net filament went negative";
    case Rule::kDensityLow: return "extrusion density implausibly low";
    case Rule::kDensityHigh: return "extrusion density implausibly high";
    case Rule::kBlobDump: return "stationary filament dump";
    case Rule::kLayerHeight: return "implausible layer advance";
  }
  return "unknown";
}

std::size_t GoldenFreeReport::count(Rule r) const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [r](const Violation& v) { return v.rule == r; }));
}

std::string GoldenFreeReport::to_string(std::size_t max_lines) const {
  std::string out;
  char buf[192];
  std::size_t shown = 0;
  for (const auto& v : violations) {
    if (shown++ >= max_lines) {
      out += "...\n";
      break;
    }
    std::snprintf(buf, sizeof(buf),
                  "Index: %u, Rule: %s, value %.3f vs bound %.3f%s%s\n",
                  v.index, rule_name(v.rule), v.value, v.bound,
                  v.detail.empty() ? "" : " - ", v.detail.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "Windows checked: %zu (printing: %zu); violations: %zu\n",
                windows_checked, printing_windows, violations.size());
  out += buf;
  out += trojan_likely ? "Trojan likely (golden-free)!\n"
                       : "No Trojan suspected (golden-free).\n";
  return out;
}

StreamingGoldenFree::StreamingGoldenFree(MachineModel machine)
    : machine_(machine) {}

void StreamingGoldenFree::push(const core::Transaction& txn) {
  if (!have_prev_) {
    have_prev_ = true;
    group_start_index_ = txn.index;
    prev_ = txn;
    return;
  }
  check_window(prev_, txn);
  prev_ = txn;
}

GoldenFreeReport StreamingGoldenFree::report(
    std::size_t min_violations) const {
  GoldenFreeReport rep = report_;
  rep.trojan_likely = rep.windows_checked > 0 &&
                      rep.violations.size() >= min_violations;
  return rep;
}

void StreamingGoldenFree::check_window(const core::Transaction& prev,
                                       const core::Transaction& cur) {
  const MachineModel& machine = machine_;
  GoldenFreeReport& rep = report_;
  const WindowDelta d = window_delta(prev, cur, machine);
  ++rep.windows_checked;

  // R1: kinematic limits.
  for (std::size_t a = 0; a < 4; ++a) {
    const double speed = std::abs(d.mm[a]) / d.period_s;
    const double bound = machine.max_feedrate_mm_s[a] * machine.speed_margin;
    if (speed > bound) {
      rep.violations.push_back({Rule::kKinematics, cur.index, speed, bound,
                                std::string("axis ") + column_name(a)});
    }
  }

  // R2: build volume (positional axes; counts are relative to home).
  for (std::size_t a = 0; a < 3; ++a) {
    const double pos =
        static_cast<double>(cur.counts[a]) / machine.steps_per_mm[a];
    if (pos < -1.0 || pos > machine.axis_length_mm[a] + 1.0) {
      rep.violations.push_back({Rule::kBuildVolume, cur.index, pos,
                                machine.axis_length_mm[a],
                                std::string("axis ") + column_name(a)});
    }
  }

  // R3: net filament must not go meaningfully negative.
  const double net_e =
      static_cast<double>(cur.counts[3]) / machine.steps_per_mm[3];
  if (net_e < -2.0) {
    rep.violations.push_back(
        {Rule::kNegativeExtrusion, cur.index, net_e, -2.0, ""});
  }

  const double travel = d.xy_travel();
  const double de = d.mm[3];

  // R5: stationary filament dump.  A stationary advance is legitimate
  // while it repays earlier retraction (an un-retract); anything beyond
  // that budget is material dumped in place.  Gated until printing has
  // started so the start-of-print nozzle prime is not flagged.
  if (de < 0.0) {
    retract_budget_mm_ = std::min(retract_budget_mm_ - de, 10.0);
  } else if (de > 0.0) {
    const double excess = de - retract_budget_mm_;
    retract_budget_mm_ = std::max(retract_budget_mm_ - de, 0.0);
    if (printing_seen_ && travel < 1.0 && excess > machine.blob_excess_mm) {
      rep.violations.push_back(
          {Rule::kBlobDump, cur.index, excess, machine.blob_excess_mm,
           "filament advanced with the head parked"});
    }
  }

  // R6: layer advances between printing phases must look like layers.
  if (d.mm[2] > 0.0) pending_z_rise_mm_ += d.mm[2];
  const bool printing_window = de > 0.0 && travel >= 0.5;
  if (printing_window) {
    ++rep.printing_windows;
    if (printing_seen_ && pending_z_rise_mm_ > 0.0) {
      if (pending_z_rise_mm_ > machine.max_layer_height_mm ||
          pending_z_rise_mm_ < machine.min_layer_height_mm) {
        rep.violations.push_back({Rule::kLayerHeight, cur.index,
                                  pending_z_rise_mm_,
                                  machine.max_layer_height_mm,
                                  "Z advance between printing phases"});
      }
    }
    printing_seen_ = true;
    pending_z_rise_mm_ = 0.0;
  }

  // R4 accumulation: density judged over batches of PRINTING windows
  // only.  Retraction windows (negative advance) and stationary
  // unretracts are excluded symmetrically, so layer changes cannot
  // skew a batch; window quantization averages out across the batch.
  if (printing_window) {
    group_travel_ += travel;
    group_e_ += de;
    ++group_n_;
  }
  if (group_n_ == 10) {
    if (group_travel_ >= machine.min_window_travel_mm * 5.0 &&
        group_e_ > 0.0) {
      const double width = implied_width(machine, group_e_, group_travel_);
      const double lo =
          machine.nominal_line_width_mm * machine.min_width_factor;
      const double hi =
          machine.nominal_line_width_mm * machine.max_width_factor;
      if (width < lo) {
        rep.violations.push_back({Rule::kDensityLow, group_start_index_,
                                  width, lo,
                                  "implied extrusion width over 1 s"});
      } else if (width > hi) {
        rep.violations.push_back({Rule::kDensityHigh, group_start_index_,
                                  width, hi,
                                  "implied extrusion width over 1 s"});
      }
    }
    group_travel_ = 0.0;
    group_e_ = 0.0;
    group_n_ = 0;
    group_start_index_ = cur.index;
  }
}

GoldenFreeReport analyze_golden_free(const core::Capture& capture,
                                     const MachineModel& machine,
                                     std::size_t min_violations) {
  StreamingGoldenFree checker(machine);
  for (const auto& txn : capture.transactions) checker.push(txn);
  return checker.report(min_violations);
}

}  // namespace offramps::detect
