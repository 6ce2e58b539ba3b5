// Whole-rig pins for STEP falls that no listener reads.
//
// `sim::Wire::pulse` lands such a fall without an event, at the (tick,
// seq) place its event would have had.  These tests hold that to "byte
// for byte" on real prints: a rig with a fall-reading witness on every
// STEP net, which keeps every fall an event, must give the bare rig's
// capture, probe traces, step counts and part report; and VCD taps on
// either bank must record the waveforms pinned before falls went lazy.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "sim/vcd.hpp"
#include "svc/fleet.hpp"

namespace offramps::host {
namespace {

/// FNV-1a of everything a print leaves behind: capture bytes, per-axis
/// motor and commanded steps, the three probe traces and the part
/// report.  Event counts are left out: they are what lazy falls change.
std::uint64_t outcome_digest(const RunResult& r) {
  core::Fnv1a h;
  const std::vector<std::uint8_t> capture = r.capture.to_binary();
  h.bytes(capture.data(), capture.size());
  for (const auto& steps : {r.motor_steps, r.commanded_steps}) {
    for (const std::int64_t s : steps) h.u64(static_cast<std::uint64_t>(s));
  }
  for (const auto* trace :
       {&r.power_trace, &r.acoustic_trace, &r.vibration_trace}) {
    h.u64(trace->size());
    for (const auto& s : *trace) {
      h.f64(s.t_s);
      h.f64(s.value);
    }
  }
  const plant::PartReport& p = r.part;
  h.u64(p.any_material ? 1 : 0);
  for (const double v :
       {p.total_filament_mm, p.first_layer_z_mm, p.max_layer_shift_mm,
        p.mean_layer_shift_mm, p.max_z_spacing_mm, p.min_z_spacing_mm,
        p.footprint_drift_mm, p.bbox_width_mm, p.bbox_depth_mm}) {
    h.f64(v);
  }
  h.u64(p.layer_count);
  for (const auto& layer : p.layers) {
    for (const double v : {layer.z_mm, layer.centroid_x, layer.centroid_y,
                           layer.min_x, layer.max_x, layer.min_y,
                           layer.max_y, layer.filament_mm}) {
      h.f64(v);
    }
    h.u64(layer.samples);
  }
  return h.value();
}

/// The benchmark's demo rig: seed 1001, MITM route, every probe, the
/// fleet's default 8 mm x 3 mm cube.  With `witness`, an every-edge
/// listener on the STEP nets of both banks reads each fall.
RunResult demo_rig(const gcode::Program& program, bool witness,
                   std::uint64_t* falls_seen = nullptr) {
  RigOptions ro;
  ro.firmware.jitter_seed = 1001;
  svc::attach_probes(ro, svc::ChannelSet{}, 1001);
  Rig rig(ro);
  std::uint64_t falls = 0;
  if (witness) {
    for (sim::PinBank* bank :
         {&rig.board().arduino_side(), &rig.board().ramps_side()}) {
      for (const auto axis : sim::kAllAxes) {
        bank->step(axis).on_edge([&falls](sim::Edge e, sim::Tick) {
          if (e == sim::Edge::kFalling) ++falls;
        });
      }
    }
  }
  RunResult r = rig.run(program);
  if (falls_seen != nullptr) *falls_seen = falls;
  return r;
}

TEST(UnreadFalls, WitnessedRigMatchesTheBareRig) {
  const gcode::Program clean =
      svc::Reference::slice(8.0, 3.0, SliceProfile{}).program;
  const gcode::Program reduced =
      gcode::flaw3d::apply_reduction(clean, {.factor = 0.85});
  for (const auto* program : {&clean, &reduced}) {
    const RunResult bare = demo_rig(*program, false);
    std::uint64_t falls = 0;
    const RunResult seen = demo_rig(*program, true, &falls);
    ASSERT_TRUE(bare.finished);
    ASSERT_TRUE(seen.finished);
    EXPECT_EQ(outcome_digest(bare), outcome_digest(seen));
    EXPECT_EQ(bare.capture.to_binary(), seen.capture.to_binary());
    EXPECT_EQ(bare.motor_steps, seen.motor_steps);
    EXPECT_EQ(bare.commanded_steps, seen.commanded_steps);
    EXPECT_EQ(bare.uart_frames_emitted, seen.uart_frames_emitted);
    // Every STEP pulse falls once on each bank, and the witness saw it.
    std::uint64_t steps = 0;
    for (const std::int64_t s : seen.commanded_steps) {
      steps += static_cast<std::uint64_t>(s < 0 ? -s : s);
    }
    EXPECT_GT(falls, steps);
    EXPECT_LT(bare.events_executed, seen.events_executed);
  }
}

// The count half of the scheduler's event pin: the bare clean demo rig
// runs this many events.  A change that schedules more (or fewer)
// events on a clean print re-records it.
TEST(UnreadFalls, BareDemoRigEventCountIsPinned) {
  const gcode::Program clean =
      svc::Reference::slice(8.0, 3.0, SliceProfile{}).program;
  const RunResult bare = demo_rig(clean, false);
  ASSERT_TRUE(bare.finished);
  EXPECT_EQ(bare.events_executed, 651006u);
}

/// FNV-1a of the VCD a short clean print records on `taps`.
template <typename Taps>
std::uint64_t vcd_digest(Taps taps) {
  const CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 0.5,
                      .center_x_mm = 110, .center_y_mm = 100};
  Rig rig;
  sim::VcdRecorder vcd(rig.scheduler());
  taps(rig, vcd);
  const RunResult r = rig.run(slice_cube(cube, SliceProfile{}));
  EXPECT_TRUE(r.finished);
  const std::string doc = vcd.render();
  core::Fnv1a h;
  h.bytes(doc.data(), doc.size());
  return h.value();
}

// Digests recorded while every STEP fall was still an event.
TEST(VcdPins, StepAndDirOnBothBanks) {
  EXPECT_EQ(vcd_digest([](Rig& rig, sim::VcdRecorder& vcd) {
              for (sim::PinBank* bank : {&rig.board().arduino_side(),
                                         &rig.board().ramps_side()}) {
                for (const auto axis : sim::kAllAxes) {
                  vcd.add(bank->step(axis));
                  vcd.add(bank->dir(axis));
                }
              }
            }),
            0xdd53baf47920eb9dull);
}

// A tap on the RAMPS side alone: its path must read the Arduino net's
// falls as events again.
TEST(VcdPins, RampsStepNetsOnly) {
  EXPECT_EQ(vcd_digest([](Rig& rig, sim::VcdRecorder& vcd) {
              for (const auto axis : sim::kAllAxes) {
                vcd.add(rig.board().ramps_side().step(axis));
              }
            }),
            0x1ec97533958e0f46ull);
}

// examples/logic_analyzer's layout.
TEST(VcdPins, LogicAnalyzerLayout) {
  EXPECT_EQ(vcd_digest([](Rig& rig, sim::VcdRecorder& vcd) {
              auto& ard = rig.board().arduino_side();
              for (const auto axis : sim::kAllAxes) {
                vcd.add(ard.step(axis));
                vcd.add(ard.dir(axis));
                vcd.add(ard.enable(axis));
              }
              vcd.add(ard.wire(sim::Pin::kHotendHeat));
              vcd.add(ard.wire(sim::Pin::kFan));
              for (const auto axis :
                   {sim::Axis::kX, sim::Axis::kY, sim::Axis::kZ}) {
                vcd.add(ard.min_endstop(axis));
              }
              vcd.add(rig.board().fpga().uart_tx_line(), "OFFRAMPS_UART_TX");
            }),
            0x773da91d25a1ece7ull);
}

}  // namespace
}  // namespace offramps::host
