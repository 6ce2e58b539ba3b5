// The builtin analysis passes.  The order of make_passes() is finding
// emission order within one command - it reproduces the exact report the
// pre-pass-manager analyzer emitted (the Flaw3D acceptance corpus pins
// the --json output byte-for-byte modulo the added "pass" field).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "analyze/pass.hpp"

namespace offramps::analyze {
namespace {

constexpr double kTinyPath = 1e-9;

// --- thermal -----------------------------------------------------------------
// cold-extrusion, cold-extrusion-risk, thermal-overtemp, temp-override.

class ThermalPass final : public Pass {
 public:
  [[nodiscard]] PassInfo info() const override {
    return {"thermal",
            "cold-extrusion, cold-extrusion-risk, thermal-overtemp, "
            "temp-override (heater setpoint model)"};
  }

  void on_command(PassContext& ctx, const gcode::Command& cmd,
                  std::size_t index, CommandClass cls) override {
    if (cls != CommandClass::kThermal) return;
    const double target = pass_thermal_target(cmd);
    const bool bed = cmd.code == 140 || cmd.code == 190;
    const auto& heater = bed ? ctx.config().bed : ctx.config().hotend;
    if (target > heater.max_temp_c) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "%s setpoint %.0f C exceeds the %.0f C kill limit",
                    bed ? "bed" : "hotend", target, heater.max_temp_c);
      ctx.emit(FindingCode::kThermalOvertemp, Severity::kError, index,
               target, heater.max_temp_c, buf);
    }
    if (bed) return;
    const ProgramState& st = ctx.state();
    // A live, never-used nonzero setpoint replaced by a different nonzero
    // value is the M104-override Trojan signature.
    if (st.hotend_set_c > 0.0 && target > 0.0 && !st.hotend_used &&
        std::abs(target - st.hotend_set_c) > 1e-9) {
      char buf[112];
      std::snprintf(buf, sizeof(buf),
                    "hotend setpoint %.0f C overridden to %.0f C before "
                    "any extrusion used it",
                    st.hotend_set_c, target);
      ctx.emit(FindingCode::kTempOverride, Severity::kWarning, index,
               target, st.hotend_set_c, buf);
    }
    if (std::abs(target - st.hotend_set_c) > 1e-9) {
      cold_risk_reported_ = false;
    }
  }

  void on_move(PassContext& ctx, const gcode::Command& cmd,
               const fw::ResolvedMove& mv, std::size_t index) override {
    (void)cmd;
    const ProgramState& st = ctx.state();
    if (mv.cold_extrusion_blocked) {
      ctx.emit(FindingCode::kColdExtrusion, Severity::kError, index,
               st.hotend_set_c, ctx.config().min_extrude_temp_c,
               "filament advance while the hotend setpoint is below the "
               "cold-extrusion threshold (heaters off?)");
    } else if (mv.e_advance_mm > 0.0 && !st.hotend_waited &&
               !cold_risk_reported_) {
      cold_risk_reported_ = true;
      ctx.emit(FindingCode::kColdExtrusionRisk, Severity::kNote, index,
               st.hotend_set_c, ctx.config().min_extrude_temp_c,
               "extrusion before any M109/M190 wait; the first moves may "
               "be cold-blocked at runtime");
    }
  }

 private:
  bool cold_risk_reported_ = false;
};

// --- kinematics-limits -------------------------------------------------------
// axis-limit, feedrate-limit.

class KinematicsLimitsPass final : public Pass {
 public:
  [[nodiscard]] PassInfo info() const override {
    return {"kinematics-limits",
            "axis-limit, feedrate-limit (machine envelope)"};
  }

  void on_move(PassContext& ctx, const gcode::Command& cmd,
               const fw::ResolvedMove& mv, std::size_t index) override {
    (void)cmd;
    const fw::Config& config = ctx.config();
    for (std::size_t i = 0; i < 3; ++i) {
      if (!mv.clamped[i]) continue;
      char buf[112];
      std::snprintf(buf, sizeof(buf),
                    "%c target outside [0, %.0f] mm; runtime clamps it and "
                    "prints different geometry",
                    "XYZ"[i], config.axis_length_mm[i]);
      ctx.emit(FindingCode::kAxisLimit, Severity::kError, index,
               mv.target_mm[i], config.axis_length_mm[i], buf);
    }

    std::array<double, 4> delta_mm{};
    for (std::size_t i = 0; i < 4; ++i) {
      delta_mm[i] =
          static_cast<double>(mv.delta_steps[i]) / config.steps_per_mm[i];
    }
    const double ref_mm =
        mv.path_mm > kTinyPath ? mv.path_mm : std::abs(delta_mm[3]);
    if (ref_mm <= kTinyPath) return;
    for (std::size_t i = 0; i < 4; ++i) {
      const double axis_speed =
          mv.feed_mm_s * std::abs(delta_mm[i]) / ref_mm;
      if (axis_speed <= config.max_feedrate_mm_s[i] * (1.0 + 1e-9)) {
        continue;
      }
      char buf[128];
      std::snprintf(
          buf, sizeof(buf),
          "%c would run at %.1f mm/s (%.0f steps/s), above its %.1f mm/s "
          "maximum; runtime scales the whole move down",
          "XYZE"[i], axis_speed, axis_speed * config.steps_per_mm[i],
          config.max_feedrate_mm_s[i]);
      ctx.emit(FindingCode::kFeedrateLimit, Severity::kWarning, index,
               axis_speed, config.max_feedrate_mm_s[i], buf);
      return;  // one finding per move: the worst offender is enough
    }
  }
};

// --- extrusion ---------------------------------------------------------------
// inplace-extrusion (relocation blob dumps vs. the retraction debt).

class ExtrusionPass final : public Pass {
 public:
  [[nodiscard]] PassInfo info() const override {
    return {"extrusion",
            "inplace-extrusion (stationary advance beyond the retraction "
            "debt: relocation blob dumps)"};
  }

  void on_move(PassContext& ctx, const gcode::Command& cmd,
               const fw::ResolvedMove& mv, std::size_t index) override {
    (void)cmd;
    const ProgramState& st = ctx.state();
    const double de = mv.e_advance_mm;
    if (de <= 0.0 || mv.path_mm > kTinyPath) return;
    // Stationary positive advance: legitimate only as un-retract (or the
    // pre-print prime); anything beyond the debt is a blob dump.
    if (!st.printing_started) return;
    const double excess = de - st.retract_debt_mm;
    if (excess > ctx.options().blob_excess_mm) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "in-place extrusion of %.2f mm filament, %.2f mm "
                    "beyond the retraction debt (relocation blob dump?)",
                    de, excess);
      ctx.emit(FindingCode::kInplaceExtrusion, Severity::kError, index, de,
               st.retract_debt_mm, buf);
    }
  }
};

// --- structure ---------------------------------------------------------------
// unknown-command.

class StructurePass final : public Pass {
 public:
  [[nodiscard]] PassInfo info() const override {
    return {"structure",
            "unknown-command (words the firmware would ignore)"};
  }

  void on_command(PassContext& ctx, const gcode::Command& cmd,
                  std::size_t index, CommandClass cls) override {
    if (cls != CommandClass::kUnknown) return;
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "command %c%d is not understood by the firmware",
                  cmd.letter, cmd.code);
    ctx.emit(FindingCode::kUnknownCommand, Severity::kWarning, index,
             static_cast<double>(cmd.code), 0.0, buf);
  }
};

// --- reachability ------------------------------------------------------------
// unreachable-commands + post-abort-motion: flow-sensitive scan of the
// program tail after an M112 emergency stop.  The old analyzer stopped at
// the first dead command; the pass keeps scanning and flags *effectual*
// commands (motion, heater) hiding in the dead tail - the signature of a
// program truncated or re-ordered by a compromised host (an attacker who
// inserts an early M112 silently voids everything after it).

class ReachabilityPass final : public Pass {
 public:
  [[nodiscard]] PassInfo info() const override {
    return {"reachability",
            "unreachable-commands, post-abort-motion (flow-sensitive "
            "dead-code scan after M112)"};
  }

  void on_dead(PassContext& ctx, const gcode::Command& cmd,
               std::size_t index) override {
    if (!note_emitted_) {
      note_emitted_ = true;
      const std::size_t total =
          ctx.program() != nullptr ? ctx.program()->size() : index + 1;
      ctx.emit(FindingCode::kUnreachableCommands, Severity::kNote, index,
               static_cast<double>(total - index), 0.0,
               "commands after M112 emergency stop never execute");
    }
    if (!effectual_reported_ && is_effectual(cmd)) {
      effectual_reported_ = true;
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%c%d after the M112 emergency stop would move or heat "
                    "but never executes (tampered or truncated program?)",
                    cmd.letter, cmd.code);
      ctx.emit(FindingCode::kPostAbortMotion, Severity::kWarning, index,
               static_cast<double>(cmd.code), 0.0, buf);
    }
  }

 private:
  static bool is_effectual(const gcode::Command& cmd) {
    if (cmd.letter == 'G') {
      return cmd.code == 0 || cmd.code == 1 || cmd.code == 2 ||
             cmd.code == 3 || cmd.code == 28;
    }
    if (cmd.letter == 'M') {
      return (cmd.code == 104 || cmd.code == 109 || cmd.code == 140 ||
              cmd.code == 190) &&
             pass_thermal_target(cmd) > 0.0;
    }
    return false;
  }

  bool note_emitted_ = false;
  bool effectual_reported_ = false;
};

// --- taint -------------------------------------------------------------------
// feedrate-override-taint, flow-override-taint, temp-override-taint:
// flow-sensitive tracking of the modal M220/M221/M104 overrides.  A
// mid-print M221 S50 halves every later extrusion without touching a
// single E word - the modal spelling of the FLAW3D reduction Trojan,
// invisible to a textual diff of the move commands; a mid-print M220
// re-scales feedrates the same way, and an unwaited M104 re-targets the
// hotend under live extrusion.  Each override site is reported once, at
// the first move it actually taints.

class TaintPass final : public Pass {
 public:
  [[nodiscard]] PassInfo info() const override {
    return {"taint",
            "feedrate-override-taint, flow-override-taint, "
            "temp-override-taint (mid-print M220/M221/M104 overrides)"};
  }

  void on_move(PassContext& ctx, const gcode::Command& cmd,
               const fw::ResolvedMove& mv, std::size_t index) override {
    (void)cmd;
    const ProgramState& st = ctx.state();
    constexpr std::size_t kNone = ProgramState::kNoCommand;

    if (st.feed_override_cmd != kNone &&
        st.feed_override_cmd != feed_reported_ && mv.path_mm > kTinyPath) {
      feed_reported_ = st.feed_override_cmd;
      char buf[144];
      std::snprintf(buf, sizeof(buf),
                    "move feedrate scaled to %.0f%% by the mid-print M220 "
                    "at command %zu (untrusted override taints every "
                    "following move)",
                    st.motion.feedrate_pct, st.feed_override_cmd);
      ctx.emit(FindingCode::kFeedrateOverrideTaint, Severity::kWarning,
               index, st.motion.feedrate_pct, 100.0, buf);
    }

    if (st.flow_override_cmd != kNone &&
        st.flow_override_cmd != flow_reported_ && mv.e_advance_mm != 0.0) {
      flow_reported_ = st.flow_override_cmd;
      char buf[144];
      std::snprintf(buf, sizeof(buf),
                    "extrusion scaled to %.0f%% by the mid-print M221 at "
                    "command %zu (modal spelling of a reduction Trojan)",
                    st.motion.flow_pct, st.flow_override_cmd);
      ctx.emit(FindingCode::kFlowOverrideTaint, Severity::kWarning, index,
               st.motion.flow_pct, 100.0, buf);
    }

    if (st.temp_override_cmd != kNone &&
        st.temp_override_cmd != temp_reported_ && mv.e_advance_mm > 0.0) {
      temp_reported_ = st.temp_override_cmd;
      char buf[144];
      std::snprintf(buf, sizeof(buf),
                    "extrusion at a hotend setpoint re-targeted to %.0f C "
                    "by the mid-print M104 at command %zu without an M109 "
                    "wait",
                    st.hotend_set_c, st.temp_override_cmd);
      ctx.emit(FindingCode::kTempOverrideTaint, Severity::kWarning, index,
               st.hotend_set_c, 0.0, buf);
    }
  }

 private:
  std::size_t feed_reported_ = ProgramState::kNoCommand;
  std::size_t flow_reported_ = ProgramState::kNoCommand;
  std::size_t temp_reported_ = ProgramState::kNoCommand;
};

// --- oracle ------------------------------------------------------------------
// Builds the static Oracle (segments, counts, totals) and owns the
// counter-alignment caveats: rehome-uncertainty, counters-not-armed.

class OraclePass final : public Pass {
 public:
  [[nodiscard]] PassInfo info() const override {
    return {"oracle",
            "step-count oracle (segments, expected counts), "
            "rehome-uncertainty, counters-not-armed"};
  }

  void on_command(PassContext& ctx, const gcode::Command& cmd,
                  std::size_t index, CommandClass cls) override {
    (void)cmd;
    if (cls == CommandClass::kHome && ctx.state().armed) {
      ctx.emit(FindingCode::kRehomeUncertainty, Severity::kNote, index, 0.0,
               0.0,
               "program re-homes after the counters armed; expected counts "
               "carry a few steps of trigger uncertainty");
    }
  }

  void on_move(PassContext& ctx, const gcode::Command& cmd,
               const fw::ResolvedMove& mv, std::size_t index) override {
    (void)cmd;
    const ProgramState& st = ctx.state();
    SegmentRecord seg;
    seg.command_index = index;
    seg.delta_steps = mv.delta_steps;
    seg.path_mm = mv.path_mm;
    seg.e_mm = mv.e_advance_mm;
    seg.feed_mm_s = mv.feed_mm_s;
    seg.counted = st.armed;
    if (mv.e_advance_mm > 0.0) {
      seg.kind = mv.path_mm > kTinyPath ? SegmentKind::kExtrusion
                                        : SegmentKind::kEOnly;
    } else if (mv.e_advance_mm < 0.0) {
      seg.kind = SegmentKind::kRetraction;
    } else {
      seg.kind = SegmentKind::kTravel;
    }

    Oracle& o = ctx.result().oracle;
    ++o.move_count;
    if (seg.kind == SegmentKind::kExtrusion) {
      ++o.extrusion_move_count;
      o.extrusion_path_mm += mv.path_mm;
    }
    if (mv.e_advance_mm > 0.0) o.extruded_mm += mv.e_advance_mm;
    if (mv.e_advance_mm < 0.0) o.retracted_mm += -mv.e_advance_mm;

    // The legitimate stationary-advance budget (un-retract / prime): any
    // stationary positive advance not classified as a blob dump.
    const double de = mv.e_advance_mm;
    if (de > 0.0 && mv.path_mm <= kTinyPath) {
      const double excess = de - st.retract_debt_mm;
      if (!st.printing_started || excess <= ctx.options().blob_excess_mm) {
        o.max_stationary_e_mm = std::max(o.max_stationary_e_mm, de);
      }
    }
    o.segments.push_back(seg);
  }

  void on_end(PassContext& ctx) override {
    const ProgramState& st = ctx.state();
    Oracle& o = ctx.result().oracle;
    o.expected_counts = st.counts;
    o.total_pulses = st.pulses;
    o.final_state = st.motion;
    o.counters_armed = st.armed;
    o.armed_at_command = st.armed ? st.armed_at : 0;
    if (!o.counters_armed) {
      ctx.emit(FindingCode::kCountersNotArmed, Severity::kNote, 0, 0.0, 0.0,
               "program never homes all three axes; the OFFRAMPS step "
               "counters would not arm");
    }
  }
};

// --- baseline-compare --------------------------------------------------------
// The exact static-vs-static diff against a known-good program.

class BaselineComparePass final : public Pass {
 public:
  [[nodiscard]] PassInfo info() const override {
    return {"baseline-compare",
            "move-count/segment/step-count/extrusion-total/ratio "
            "mismatches against a known-good baseline"};
  }

  void compare(PassContext& ctx, const AnalysisResult& baseline) override {
    const AnalyzeOptions& options = ctx.options();
    const Oracle& b = baseline.oracle;
    const Oracle& s = ctx.result().oracle;
    char buf[192];

    if (b.segments.size() != s.segments.size()) {
      std::snprintf(buf, sizeof(buf),
                    "program resolves to %zu motion segments, baseline has "
                    "%zu (commands inserted or removed)",
                    s.segments.size(), b.segments.size());
      ctx.emit(FindingCode::kMoveCountMismatch, Severity::kError, 0,
               static_cast<double>(s.segments.size()),
               static_cast<double>(b.segments.size()), buf);
    }

    const std::size_t n = std::min(b.segments.size(), s.segments.size());
    std::size_t step_diverged = 0;
    std::size_t ratio_diverged = 0;
    std::size_t reported = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const SegmentRecord& sb = b.segments[i];
      const SegmentRecord& ss = s.segments[i];
      const bool steps_differ = sb.delta_steps != ss.delta_steps;
      const bool ratio_differs =
          std::abs(sb.e_mm - ss.e_mm) > options.ratio_tol;
      if (steps_differ) ++step_diverged;
      if (ratio_differs && !steps_differ) ++ratio_diverged;
      if ((steps_differ || ratio_differs) &&
          reported < options.max_segment_findings) {
        ++reported;
        std::snprintf(
            buf, sizeof(buf),
            "segment %zu diverges from baseline: steps X%+lld Y%+lld "
            "Z%+lld E%+lld vs X%+lld Y%+lld Z%+lld E%+lld",
            i, static_cast<long long>(ss.delta_steps[0]),
            static_cast<long long>(ss.delta_steps[1]),
            static_cast<long long>(ss.delta_steps[2]),
            static_cast<long long>(ss.delta_steps[3]),
            static_cast<long long>(sb.delta_steps[0]),
            static_cast<long long>(sb.delta_steps[1]),
            static_cast<long long>(sb.delta_steps[2]),
            static_cast<long long>(sb.delta_steps[3]));
        ctx.emit(steps_differ ? FindingCode::kSegmentMismatch
                              : FindingCode::kRatioMismatch,
                 Severity::kError, ss.command_index,
                 static_cast<double>(ss.delta_steps[3]),
                 static_cast<double>(sb.delta_steps[3]), buf);
      }
    }
    if (step_diverged + ratio_diverged > reported) {
      std::snprintf(buf, sizeof(buf),
                    "%zu of %zu compared segments diverge from baseline",
                    step_diverged + ratio_diverged, n);
      ctx.emit(FindingCode::kSegmentMismatch, Severity::kError, 0,
               static_cast<double>(step_diverged + ratio_diverged),
               static_cast<double>(n), buf);
    }

    for (std::size_t axis = 0; axis < 4; ++axis) {
      if (b.expected_counts[axis] == s.expected_counts[axis]) continue;
      std::snprintf(buf, sizeof(buf),
                    "expected %c steps %lld differ from baseline %lld",
                    "XYZE"[axis],
                    static_cast<long long>(s.expected_counts[axis]),
                    static_cast<long long>(b.expected_counts[axis]));
      ctx.emit(FindingCode::kStepCountMismatch, Severity::kError, 0,
               static_cast<double>(s.expected_counts[axis]),
               static_cast<double>(b.expected_counts[axis]), buf);
    }

    const double denom = std::max(std::abs(b.extruded_mm), 1e-12);
    if (std::abs(b.extruded_mm - s.extruded_mm) / denom >
        options.extrusion_total_rel_tol) {
      std::snprintf(buf, sizeof(buf),
                    "total extrusion %.3f mm differs from baseline %.3f mm "
                    "(%+.2f%%)",
                    s.extruded_mm, b.extruded_mm,
                    (s.extruded_mm - b.extruded_mm) / denom * 100.0);
      ctx.emit(FindingCode::kExtrusionTotalMismatch, Severity::kError, 0,
               s.extruded_mm, b.extruded_mm, buf);
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Pass>> make_passes() {
  // Order = emission order within one command (and the --list-passes
  // order): thermal findings precede envelope findings precede blob
  // findings on the same move, matching the historical report layout.
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(std::make_unique<ThermalPass>());
  passes.push_back(std::make_unique<KinematicsLimitsPass>());
  passes.push_back(std::make_unique<ExtrusionPass>());
  passes.push_back(std::make_unique<StructurePass>());
  passes.push_back(std::make_unique<ReachabilityPass>());
  passes.push_back(std::make_unique<TaintPass>());
  passes.push_back(std::make_unique<OraclePass>());
  passes.push_back(std::make_unique<BaselineComparePass>());
  return passes;
}

}  // namespace offramps::analyze
