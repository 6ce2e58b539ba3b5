// Unit tests for the OFFRAMPS board: the three routing configurations of
// paper Figure 3 and their equivalence properties.
#include <gtest/gtest.h>

#include "core/board.hpp"
#include "sim/trace.hpp"

namespace offramps::core {
namespace {

struct BoardFixture : ::testing::Test {
  sim::Scheduler sched;

  void pulse(sim::Wire& w, int n, sim::Tick spacing = sim::us(50)) {
    for (int i = 0; i < n; ++i) {
      w.set(true);
      sched.run_until(sched.now() + sim::us(1));
      w.set(false);
      sched.run_until(sched.now() + spacing);
    }
  }
};

TEST_F(BoardFixture, DirectRouteForwardsControlSignals) {
  Board board(sched, {}, RouteMode::kDirect);
  sim::TraceRecorder out(board.ramps_side().step(sim::Axis::kX), false);
  pulse(board.arduino_side().step(sim::Axis::kX), 10);
  EXPECT_EQ(out.rising_edges(), 10u);
}

TEST_F(BoardFixture, DirectRouteForwardsEndstopsBackward) {
  Board board(sched, {}, RouteMode::kDirect);
  board.ramps_side().min_endstop(sim::Axis::kY).set(true);
  sched.run_until(sim::us(1));
  EXPECT_TRUE(board.arduino_side().min_endstop(sim::Axis::kY).level());
}

TEST_F(BoardFixture, DirectRouteForwardsAnalog) {
  Board board(sched, {}, RouteMode::kDirect);
  board.ramps_side().analog(sim::APin::kThermHotend).set(512.0);
  EXPECT_DOUBLE_EQ(
      board.arduino_side().analog(sim::APin::kThermHotend).value(), 512.0);
}

TEST_F(BoardFixture, MitmRouteIsLosslessWhenBenign) {
  Board board(sched, {}, RouteMode::kFpgaMitm);
  sim::TraceRecorder out(board.ramps_side().step(sim::Axis::kE), false);
  pulse(board.arduino_side().step(sim::Axis::kE), 25);
  sched.run_until(sched.now() + sim::us(5));
  EXPECT_EQ(out.rising_edges(), 25u);
}

TEST_F(BoardFixture, MitmAddsOnlyNanosecondDelay) {
  Board board(sched, {}, RouteMode::kFpgaMitm);
  auto& in = board.arduino_side().step(sim::Axis::kX);
  auto& out = board.ramps_side().step(sim::Axis::kX);
  sim::Tick out_rise = 0;
  out.on_rising([&](sim::Tick t) { out_rise = t; });
  const sim::Tick t0 = sched.now();
  in.set(true);
  sched.run_until(sched.now() + sim::us(1));
  const sim::Tick delay = out_rise - t0;
  EXPECT_GT(delay, 0u);
  EXPECT_LE(delay, sim::ns(13));  // paper: max 12.923 ns
}

TEST_F(BoardFixture, DirectModeDisablesMonitoring) {
  Board board(sched, {}, RouteMode::kDirect);
  // Full homing signature on the RAMPS side...
  for (const auto a : {sim::Axis::kX, sim::Axis::kY, sim::Axis::kZ}) {
    auto& stop = board.ramps_side().min_endstop(a);
    pulse(stop, 2, sim::ms(1));
  }
  sched.run_until(sched.now() + sim::ms(10));
  // ...goes unseen: the FPGA is out of circuit.
  EXPECT_FALSE(board.fpga().homing().homed());
}

TEST_F(BoardFixture, RecordModeMonitorsWithoutModifying) {
  Board board(sched, {}, RouteMode::kFpgaRecord);
  // Homing signature reaches both the firmware side AND the monitors.
  for (const auto a : {sim::Axis::kX, sim::Axis::kY, sim::Axis::kZ}) {
    auto& stop = board.ramps_side().min_endstop(a);
    stop.set(true);
    sched.run_until(sched.now() + sim::ms(1));
    stop.set(false);
    sched.run_until(sched.now() + sim::ms(1));
    stop.set(true);
    sched.run_until(sched.now() + sim::ms(1));
    stop.set(false);
    sched.run_until(sched.now() + sim::ms(1));
  }
  EXPECT_TRUE(board.fpga().homing().homed());
  // And the direct jumpers carried the signals to the firmware side.
  EXPECT_FALSE(board.arduino_side().min_endstop(sim::Axis::kZ).level());
}

TEST_F(BoardFixture, RecordModeCannotModify) {
  Board board(sched, {}, RouteMode::kFpgaRecord);
  // A Trojan forcing a heater path high has no effect: paths are inactive.
  board.fpga().path(sim::Pin::kHotendHeat).force(true);
  sched.run_until(sched.now() + sim::us(10));
  EXPECT_FALSE(board.ramps_side().wire(sim::Pin::kHotendHeat).level());
}

TEST_F(BoardFixture, MitmModeCanModify) {
  Board board(sched, {}, RouteMode::kFpgaMitm);
  board.fpga().path(sim::Pin::kHotendHeat).force(true);
  sched.run_until(sched.now() + sim::us(10));
  EXPECT_TRUE(board.ramps_side().wire(sim::Pin::kHotendHeat).level());
}

TEST_F(BoardFixture, RouteSwitchRewiresLive) {
  Board board(sched, {}, RouteMode::kDirect);
  auto& in = board.arduino_side().step(sim::Axis::kX);
  auto& out = board.ramps_side().step(sim::Axis::kX);
  pulse(in, 3);
  EXPECT_EQ(out.rising_count(), 3u);
  board.set_route(RouteMode::kFpgaMitm);
  pulse(in, 3);
  sched.run_until(sched.now() + sim::us(5));
  EXPECT_EQ(out.rising_count(), 6u);
  board.set_route(RouteMode::kDirect);
  pulse(in, 3);
  EXPECT_EQ(out.rising_count(), 9u);
}

TEST_F(BoardFixture, MaxPropDelayMatchesPaperWorstCase) {
  Board board(sched, {}, RouteMode::kFpgaMitm);
  EXPECT_EQ(board.fpga().max_prop_delay(), sim::ns(13));
  EXPECT_EQ(board.fpga().max_prop_delay_pin(), sim::Pin::kYDir);
}

}  // namespace
}  // namespace offramps::core
