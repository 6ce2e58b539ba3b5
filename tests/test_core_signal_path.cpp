// Unit tests for the FPGA signal path: pass-through delay, forcing,
// pulse filtering, and pulse injection.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/board.hpp"
#include "core/signal_path.hpp"
#include "sim/trace.hpp"

namespace offramps::core {
namespace {

struct PathFixture : ::testing::Test {
  sim::Scheduler sched;
  sim::Wire in{sched, "in"};
  sim::Wire out{sched, "out"};
  SignalPath path{sched, in, out, sim::ns(13)};

  void SetUp() override { path.set_active(true); }

  void pulse_in(sim::Tick width = sim::us(1)) {
    in.set(true);
    sched.schedule_in(width, [this] { in.set(false); });
    sched.run_until(sched.now() + width + sim::us(1));
  }
};

TEST_F(PathFixture, PassthroughForwardsWithDelay) {
  in.set(true);
  EXPECT_FALSE(out.level());
  sched.run_until(sim::ns(12));
  EXPECT_FALSE(out.level());
  sched.run_until(sim::ns(13));
  EXPECT_TRUE(out.level());
  in.set(false);
  sched.run_until(sim::ns(26));
  EXPECT_FALSE(out.level());
}

TEST_F(PathFixture, InactivePathDoesNotDrive) {
  path.set_active(false);
  in.set(true);
  sched.run_until(sim::us(1));
  EXPECT_FALSE(out.level());
}

TEST_F(PathFixture, ActivationSyncsToInputLevel) {
  path.set_active(false);
  in.set(true);
  sched.run_until(sim::us(1));
  path.set_active(true);
  EXPECT_TRUE(out.level());
}

TEST_F(PathFixture, PulseCountsPreservedByPassthrough) {
  sim::TraceRecorder trace(out, false);
  for (int i = 0; i < 20; ++i) pulse_in();
  sched.run_until(sched.now() + sim::us(10));
  EXPECT_EQ(trace.rising_edges(), 20u);
  EXPECT_EQ(path.passed_pulses(), 20u);
  EXPECT_EQ(path.dropped_pulses(), 0u);
}

TEST_F(PathFixture, ForceHighOverridesInput) {
  path.force(true);
  EXPECT_TRUE(out.level());
  pulse_in();
  EXPECT_TRUE(out.level());  // input pulses invisible
  path.force(std::nullopt);
  sched.run_until(sched.now() + sim::us(1));
  EXPECT_FALSE(out.level());  // released to pass-through level
}

TEST_F(PathFixture, ForceLowBlocksPulses) {
  sim::TraceRecorder trace(out, false);
  path.force(false);
  for (int i = 0; i < 5; ++i) pulse_in();
  EXPECT_EQ(trace.rising_edges(), 0u);
}

TEST_F(PathFixture, FilterDropsWholePulses) {
  sim::TraceRecorder trace(out, false);
  int n = 0;
  path.set_pulse_filter([&n] { return (n++ % 2) == 0; });  // keep evens
  for (int i = 0; i < 10; ++i) pulse_in();
  sched.run_until(sched.now() + sim::us(10));
  EXPECT_EQ(trace.rising_edges(), 5u);
  EXPECT_EQ(trace.falling_edges(), 5u);  // no dangling half-pulses
  EXPECT_EQ(path.dropped_pulses(), 5u);
  EXPECT_EQ(path.passed_pulses(), 5u);
}

TEST_F(PathFixture, ClearingFilterRestoresAll) {
  int n = 0;
  path.set_pulse_filter([&n] { return (n++ % 2) == 0; });
  pulse_in();
  pulse_in();
  path.set_pulse_filter(nullptr);
  sim::TraceRecorder trace(out, false);
  for (int i = 0; i < 4; ++i) pulse_in();
  sched.run_until(sched.now() + sim::us(10));
  EXPECT_EQ(trace.rising_edges(), 4u);
}

TEST_F(PathFixture, InjectionAddsPulses) {
  sim::TraceRecorder trace(out, false);
  path.inject_pulse(sim::us(1));
  sched.run_until(sched.now() + sim::us(5));
  EXPECT_EQ(trace.rising_edges(), 1u);
  EXPECT_EQ(path.injected_pulses(), 1u);
}

TEST_F(PathFixture, InjectionMergesWithTraffic) {
  sim::TraceRecorder trace(out, false);
  // 10 input pulses 50 us apart with 5 injections interleaved.
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(sim::us(static_cast<std::uint64_t>(50 * i)),
                      [this] { in.pulse(sim::us(1)); });
  }
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(sim::us(static_cast<std::uint64_t>(25 + 100 * i)),
                      [this] { path.inject_pulse(sim::us(1)); });
  }
  sched.run_all();
  EXPECT_EQ(trace.rising_edges(), 15u);
}

TEST_F(PathFixture, InjectionDefersWhenOutputBusy) {
  sim::TraceRecorder trace(out, false);
  in.set(true);  // output will go high and stay
  sched.run_until(sim::us(1));
  path.inject_pulse(sim::us(1));
  sched.run_until(sim::us(50));
  EXPECT_EQ(trace.rising_edges(), 1u);  // still just the input's edge
  in.set(false);
  sched.run_until(sim::us(100));
  EXPECT_EQ(trace.rising_edges(), 2u);  // deferred injection landed
  EXPECT_EQ(path.injected_pulses(), 1u);
}

TEST_F(PathFixture, InjectionSuppressedWhileForced) {
  sim::TraceRecorder trace(out, false);
  path.force(false);
  path.inject_pulse(sim::us(1));
  sched.run_until(sim::us(100));
  EXPECT_EQ(trace.rising_edges(), 0u);
  EXPECT_EQ(path.injected_pulses(), 0u);
}

// --- Falls passed on without events ------------------------------------------
//
// A pulse fall that lands on the input without an event is passed on as
// one on the output.  Each case drives a path twice: bare, and with a
// witness listener of every edge on the output, which makes the path read
// its input's falls as events, as every path did before.  What events at
// the output's fall ticks read must agree.

/// One read of an output net.
struct OutRead {
  sim::Tick at = 0;
  bool level = false;
  std::uint64_t falls = 0;
  sim::Tick last = 0;
  bool operator==(const OutRead&) const = default;
};

void read_out(std::vector<OutRead>& log, sim::Scheduler& s, sim::Wire& w) {
  log.push_back({s.now(), w.level(), w.falling_count(), w.last_change()});
}

struct ForwardBench {
  sim::Scheduler sched;
  sim::Wire in{sched, "in"};
  sim::Wire out{sched, "out"};
  SignalPath path{sched, in, out, sim::ns(13)};
  std::vector<OutRead> seen;

  explicit ForwardBench(bool witness) {
    path.set_active(true);
    if (witness) out.on_edge([](sim::Edge, sim::Tick) {});
  }
  void probe_at(sim::Tick t) {
    sched.schedule_at(t, [this] { read_out(seen, sched, out); });
  }
  /// A pulse at `t`, with reads around its rise and fall on the output.
  void pulse_at(sim::Tick t, sim::Tick width = sim::us(1)) {
    sched.schedule_at(t, [this, width] { in.pulse(width); });
    for (const sim::Tick at : {t + 12, t + 13, t + width + 12,
                               t + width + 13, t + width + 14}) {
      probe_at(at);
    }
  }
};

template <typename Drive>
void expect_same_output(Drive drive, bool fewer_events = true) {
  ForwardBench bare(false);
  ForwardBench seen(true);
  drive(bare);
  drive(seen);
  EXPECT_EQ(bare.seen, seen.seen);
  EXPECT_EQ(bare.path.passed_pulses(), seen.path.passed_pulses());
  EXPECT_EQ(bare.sched.now(), seen.sched.now());  // the run ends in place
  if (fewer_events) {
    EXPECT_LT(bare.sched.executed(), seen.sched.executed());
  } else {
    EXPECT_EQ(bare.sched.executed(), seen.sched.executed());
  }
}

TEST(ForwardedFall, LandsAtTheInputFallPlusTheDelay) {
  expect_same_output([](ForwardBench& b) {
    for (std::uint64_t i = 0; i < 4; ++i) b.pulse_at(sim::us(10 * i));
    b.pulse_at(sim::us(50), sim::ns(5));  // narrower than the path delay
    b.sched.run_all();
    read_out(b.seen, b.sched, b.out);
  });
  ForwardBench b(false);
  b.in.pulse(sim::us(1));
  b.sched.run_all();
  EXPECT_EQ(b.out.falling_count(), 1u);
  EXPECT_EQ(b.out.last_change(), sim::us(1) + sim::ns(13));
  EXPECT_EQ(b.sched.executed(), 1u);  // the rise's propagation only
}

TEST(ForwardedFall, OutputGainingATapMidPrintRecordsTheSameWaveform) {
  const auto run = [](bool witness) {
    ForwardBench b(witness);
    std::unique_ptr<sim::TraceRecorder> tap;
    for (std::uint64_t i = 0; i < 6; ++i) b.pulse_at(sim::us(10 * i));
    // Pulse 3 has reached the output; its fall there is still to land.
    b.sched.schedule_at(sim::us(30) + 500, [&] {
      tap = std::make_unique<sim::TraceRecorder>(b.out);
    });
    b.sched.run_all();
    return std::pair{b.seen, tap->transitions()};
  };
  const auto bare = run(false);
  const auto seen = run(true);
  EXPECT_EQ(bare.first, seen.first);
  ASSERT_EQ(bare.second.size(), seen.second.size());
  for (std::size_t i = 0; i < bare.second.size(); ++i) {
    EXPECT_EQ(bare.second[i].time, seen.second[i].time) << i;
    EXPECT_EQ(bare.second[i].level, seen.second[i].level) << i;
  }
  ASSERT_EQ(bare.second.size(), 5u);  // pulse 3's fall, then pulses 4, 5
  EXPECT_EQ(bare.second[0].time, sim::us(31) + 13);
}

TEST(ForwardedFall, ForceAndInjectionWhileAFallWaits) {
  expect_same_output(
      [](ForwardBench& b) {
        b.pulse_at(0);
        b.sched.schedule_at(500, [&b] { b.path.force(true); });
        b.sched.schedule_at(sim::us(3), [&b] { b.path.force(std::nullopt); });
        b.probe_at(sim::us(3));
        b.pulse_at(sim::us(10));
        b.sched.schedule_at(sim::us(10) + 500,
                            [&b] { b.path.inject_pulse(sim::us(2)); });
        b.pulse_at(sim::us(20));
        // Forced between the rise and its arrival at the output.
        b.pulse_at(sim::us(30));
        b.sched.schedule_at(sim::us(30) + 5, [&b] { b.path.force(true); });
        b.sched.schedule_at(sim::us(33), [&b] { b.path.force(std::nullopt); });
        b.probe_at(sim::us(33));
        b.sched.run_all();
        read_out(b.seen, b.sched, b.out);
      },
      /*fewer_events=*/true);
}

TEST(ForwardedFall, DeactivatedPathLeavesItsOutputAlone) {
  for (const sim::Tick when : {sim::Tick{5}, sim::Tick{500},
                               sim::us(1) + 3}) {
    expect_same_output([when](ForwardBench& b) {
      b.pulse_at(0);
      b.sched.schedule_at(when, [&b] { b.path.set_active(false); });
      b.pulse_at(sim::us(10));
      b.sched.schedule_at(sim::us(10) + 500,
                          [&b] { b.path.set_active(true); });
      b.pulse_at(sim::us(20));
      b.sched.run_all();
      read_out(b.seen, b.sched, b.out);
    });
    // Deactivated as the run's last act, while a fall waits: the run ends
    // where it would have, at the input's fall (or, once the input has
    // fallen, at the propagation event filed for it).
    expect_same_output(
        [when](ForwardBench& b) {
          b.pulse_at(0);
          b.sched.schedule_at(when, [&b] { b.path.set_active(false); });
          b.sched.run_all();
          read_out(b.seen, b.sched, b.out);
        },
        /*fewer_events=*/when > sim::us(1));
  }
  ForwardBench b(false);
  b.in.pulse(sim::us(1));
  b.sched.schedule_at(500, [&b] { b.path.set_active(false); });
  b.sched.run_all();
  EXPECT_EQ(b.sched.now(), sim::us(1));
  EXPECT_TRUE(b.out.level());
}

// Two paths in a row, the first's output the second's input: the fall
// passes both hops without an event, and a pulse narrower than the second
// hop's delay keeps it an event there.
TEST(ForwardedFall, ChainedPathsPassTheFallOnHopByHop) {
  const auto run = [](bool witness) {
    sim::Scheduler s;
    sim::Wire a(s, "a"), b(s, "b"), c(s, "c");
    SignalPath ab(s, a, b, sim::ns(8));
    SignalPath bc(s, b, c, sim::ns(13));
    ab.set_active(true);
    bc.set_active(true);
    if (witness) c.on_edge([](sim::Edge, sim::Tick) {});
    std::vector<OutRead> seen;
    sim::Tick t = 0;
    for (const sim::Tick width : {sim::ns(5), sim::ns(10), sim::ns(13),
                                  sim::ns(20), sim::us(1)}) {
      s.schedule_at(t, [&a, width] { a.pulse(width); });
      for (sim::Tick at = t; at <= t + width + sim::ns(25); ++at) {
        s.schedule_at(at, [&] { read_out(seen, s, c); });
      }
      t += sim::us(3);
    }
    s.run_all();
    read_out(seen, s, c);
    return std::tuple{seen, s.now(), s.executed()};
  };
  const auto bare = run(false);
  const auto seen = run(true);
  EXPECT_EQ(std::get<0>(bare), std::get<0>(seen));
  EXPECT_EQ(std::get<1>(bare), std::get<1>(seen));
  EXPECT_LT(std::get<2>(bare), std::get<2>(seen));
  EXPECT_EQ(std::get<0>(bare).back().falls, 5u);
}

// The board's route changes mid-pulse, in every phase of a STEP pulse:
// before its rise reaches the RAMPS side, while it is high on both, and
// between the two falls.  The RAMPS net must read as it does with every
// fall an event.
TEST(ForwardedFall, RouteChangesMidPulse) {
  const auto run = [](bool witness) {
    sim::Scheduler s;
    Board board(s, {}, RouteMode::kFpgaMitm);
    sim::Wire& ard = board.arduino_side().step(sim::Axis::kX);
    sim::Wire& rmp = board.ramps_side().step(sim::Axis::kX);
    if (witness) rmp.on_edge([](sim::Edge, sim::Tick) {});
    std::vector<OutRead> seen;
    const RouteMode routes[] = {RouteMode::kDirect, RouteMode::kFpgaMitm,
                                RouteMode::kFpgaRecord, RouteMode::kFpgaMitm,
                                RouteMode::kDirect, RouteMode::kFpgaMitm};
    const sim::Tick offsets[] = {5, 500, sim::us(1) + 3, 1, sim::us(1), 700};
    for (std::uint64_t i = 0; i < 6; ++i) {
      const sim::Tick t = sim::us(10 * (i + 1));
      s.schedule_at(t, [&ard] { ard.pulse(sim::us(1)); });
      s.schedule_at(t + offsets[i],
                    [&board, r = routes[i]] { board.set_route(r); });
      // Every tick around the rise and around the fall.
      for (const sim::Tick edge : {t, t + sim::us(1)}) {
        for (sim::Tick at = edge; at <= edge + 15; ++at) {
          s.schedule_at(at, [&] { read_out(seen, s, rmp); });
        }
      }
    }
    s.run_all();
    read_out(seen, s, rmp);
    return std::pair{seen, s.executed()};
  };
  const auto bare = run(false);
  const auto seen = run(true);
  EXPECT_EQ(bare.first, seen.first);
  EXPECT_LT(bare.second, seen.second);
}

TEST(ForwardedFall, ArmedTrojanSuiteKeepsEveryEvent) {
  const auto run = [](bool witness, bool armed) {
    sim::Scheduler s;
    Board board(s, {}, RouteMode::kFpgaMitm);
    if (armed) {
      TrojanSuiteConfig cfg;
      cfg.t2 = T2Config{};
      board.trojans().arm(cfg);
    }
    sim::Wire& ard = board.arduino_side().step(sim::Axis::kE);
    sim::Wire& rmp = board.ramps_side().step(sim::Axis::kE);
    if (witness) rmp.on_edge([](sim::Edge, sim::Tick) {});
    for (std::uint64_t i = 0; i < 5; ++i) {
      s.schedule_at(sim::us(10 * i), [&ard] { ard.pulse(sim::us(1)); });
    }
    s.run_all();
    return std::pair{rmp.falling_count(), s.executed()};
  };
  EXPECT_EQ(run(false, true), run(true, true));
  EXPECT_EQ(run(false, false).first, run(true, false).first);
  EXPECT_LT(run(false, false).second, run(true, false).second);
}

}  // namespace
}  // namespace offramps::core
