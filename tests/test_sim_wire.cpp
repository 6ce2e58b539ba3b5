// Unit tests for wires, connections, trace recording, and duty metering.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "sim/wire.hpp"

namespace offramps::sim {
namespace {

TEST(Wire, SetTriggersListenersOnChangeOnly) {
  Scheduler s;
  Wire w(s, "w");
  int edges = 0;
  w.on_edge([&](Edge, Tick) { ++edges; });
  w.set(true);
  w.set(true);  // no-op
  w.set(false);
  w.set(false);  // no-op
  EXPECT_EQ(edges, 2);
  EXPECT_EQ(w.rising_count(), 1u);
  EXPECT_EQ(w.falling_count(), 1u);
}

TEST(Wire, RisingAndFallingFilters) {
  Scheduler s;
  Wire w(s, "w");
  int rises = 0, falls = 0;
  w.on_rising([&](Tick) { ++rises; });
  w.on_falling([&](Tick) { ++falls; });
  w.set(true);
  w.set(false);
  w.set(true);
  EXPECT_EQ(rises, 2);
  EXPECT_EQ(falls, 1);
}

TEST(Wire, PulseEmitsBothEdges) {
  Scheduler s;
  Wire w(s, "w");
  std::vector<std::pair<bool, Tick>> log;
  w.on_edge([&](Edge e, Tick t) { log.push_back({e == Edge::kRising, t}); });
  w.pulse(us(2));
  s.run_all();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].first);
  EXPECT_FALSE(log[1].first);
  EXPECT_EQ(log[1].second - log[0].second, us(2));
}

TEST(Wire, RemoveListenerStopsDelivery) {
  Scheduler s;
  Wire w(s, "w");
  int edges = 0;
  const auto id = w.on_edge([&](Edge, Tick) { ++edges; });
  w.set(true);
  w.remove_listener(id);
  w.set(false);
  EXPECT_EQ(edges, 1);
}

TEST(Wire, ListenerAddedDuringCallbackMissesCurrentEdge) {
  Scheduler s;
  Wire w(s, "w");
  int inner = 0;
  w.on_edge([&](Edge, Tick) {
    w.on_edge([&](Edge, Tick) { ++inner; });
  });
  w.set(true);
  EXPECT_EQ(inner, 0);
  w.set(false);
  EXPECT_EQ(inner, 1);  // one listener added on the first edge sees this one
}

TEST(Connect, SynchronizesInitialLevel) {
  Scheduler s;
  Wire a(s, "a", true), b(s, "b", false);
  auto conn = connect(a, b, ns(1));
  EXPECT_TRUE(b.level());
}

TEST(Connect, DelayDefersPropagation) {
  Scheduler s;
  Wire a(s, "a"), b(s, "b");
  auto conn = connect(a, b, ns(13));
  a.set(true);
  EXPECT_FALSE(b.level());
  s.run_until(12);
  EXPECT_FALSE(b.level());
  s.run_until(13);
  EXPECT_TRUE(b.level());
}

TEST(Connect, DisconnectStopsForwarding) {
  Scheduler s;
  Wire a(s, "a"), b(s, "b");
  auto conn = connect(a, b, ns(1));
  a.set(true);
  s.run_all();
  conn.disconnect();
  a.set(false);
  s.run_all();
  EXPECT_TRUE(b.level());  // b keeps its last level
}

TEST(Connect, ConnectionDestructorDisconnects) {
  Scheduler s;
  Wire a(s, "a"), b(s, "b");
  {
    auto conn = connect(a, b, ns(1));
    a.set(true);
    s.run_all();
  }
  a.set(false);
  s.run_all();
  EXPECT_TRUE(b.level());
}

TEST(AnalogChannel, DeliversEveryUpdate) {
  Scheduler s;
  AnalogChannel c(s, "adc", 1.0);
  std::vector<double> seen;
  c.on_change([&](double v, Tick) { seen.push_back(v); });
  c.set(2.0);
  c.set(2.0);  // analog updates always notify (sampled semantics)
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(c.value(), 2.0);
}

TEST(TraceRecorder, CountsEdgesAndMeasuresPulses) {
  Scheduler s;
  Wire w(s, "w");
  TraceRecorder trace(w);
  // Two pulses: 1 us wide, 5 us apart.
  s.schedule_at(us(10), [&] { w.set(true); });
  s.schedule_at(us(11), [&] { w.set(false); });
  s.schedule_at(us(15), [&] { w.set(true); });
  s.schedule_at(us(16), [&] { w.set(false); });
  s.run_all();
  EXPECT_EQ(trace.rising_edges(), 2u);
  EXPECT_EQ(trace.falling_edges(), 2u);
  EXPECT_EQ(trace.min_high_pulse(), us(1));
  EXPECT_EQ(trace.min_low_pulse(), us(4));
  EXPECT_EQ(trace.min_period(), us(5));
  EXPECT_DOUBLE_EQ(trace.max_frequency_hz(), 200'000.0);
  EXPECT_EQ(trace.transitions().size(), 4u);
}

TEST(TraceRecorder, StatisticsOnlyModeKeepsNoLog) {
  Scheduler s;
  Wire w(s, "w");
  TraceRecorder trace(w, /*keep_transitions=*/false);
  w.set(true);
  w.set(false);
  EXPECT_TRUE(trace.transitions().empty());
  EXPECT_EQ(trace.rising_edges(), 1u);
}

TEST(DutyMeter, MeasuresFiftyPercent) {
  Scheduler s;
  Wire w(s, "pwm");
  DutyMeter meter(w);
  // 10 ms window: high for 5 ms.
  s.schedule_at(ms(0) + 1, [&] { w.set(true); });
  s.schedule_at(ms(5) + 1, [&] { w.set(false); });
  s.run_until(ms(10));
  EXPECT_NEAR(meter.sample(), 0.5, 0.01);
}

TEST(DutyMeter, HandlesAlwaysHighAndAlwaysLow) {
  Scheduler s;
  Wire w(s, "pwm");
  DutyMeter meter(w);
  s.run_until(ms(10));
  EXPECT_DOUBLE_EQ(meter.sample(), 0.0);
  w.set(true);
  s.run_until(ms(20));
  EXPECT_NEAR(meter.sample(), 1.0, 1e-9);
}

TEST(DutyMeter, ResetsBetweenSamples) {
  Scheduler s;
  Wire w(s, "pwm");
  DutyMeter meter(w);
  w.set(true);
  s.run_until(ms(10));
  (void)meter.sample();  // reset the window
  w.set(false);
  s.run_until(ms(20));
  EXPECT_NEAR(meter.sample(), 0.0, 0.01);
}

// --- Listener compaction --------------------------------------------------

TEST(WireCompaction, RepeatedConnectDisconnectKeepsStorageBounded) {
  Scheduler s;
  Wire src(s, "src");
  Wire dst(s, "dst");
  // Jumper re-routing in a long session: thousands of connect/disconnect
  // cycles must not grow the listener vector (or the per-edge scan)
  // without bound.
  for (int i = 0; i < 10'000; ++i) {
    Connection c = connect(src, dst, ns(1));
    c.disconnect();
  }
  EXPECT_LE(src.listener_slots(), 2u);
  EXPECT_EQ(src.live_listeners(), 0u);

  // The wire still delivers edges to a fresh connection afterwards.
  Connection c = connect(src, dst, ns(1));
  src.set(true);
  s.run_all();
  EXPECT_TRUE(dst.level());
}

TEST(WireCompaction, MixedLiveAndDeadListenersStayNearLiveCount) {
  Scheduler s;
  Wire w(s, "w");
  int persistent_edges = 0;
  w.on_edge([&](Edge, Tick) { ++persistent_edges; });
  for (int i = 0; i < 1'000; ++i) {
    const Wire::ListenerId id = w.on_edge([](Edge, Tick) {});
    w.remove_listener(id);
  }
  // Dead slots are erased once they outnumber the live ones, so storage
  // is bounded by ~2x the live count, not by churn history.
  EXPECT_LE(w.listener_slots(), 3u);
  EXPECT_EQ(w.live_listeners(), 1u);
  w.set(true);
  EXPECT_EQ(persistent_edges, 1);
}

TEST(WireCompaction, RemovalInsideCallbackIsDeferredButApplied) {
  Scheduler s;
  Wire w(s, "w");
  int first_calls = 0, second_calls = 0;
  Wire::ListenerId second_id = 0;
  w.on_edge([&](Edge, Tick) {
    ++first_calls;
    // Remove the *other* listener mid-delivery: its slot is nulled
    // immediately but compaction waits until the edge finishes.
    w.remove_listener(second_id);
  });
  second_id = w.on_edge([&](Edge, Tick) { ++second_calls; });
  w.set(true);
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 0);  // nulled before its turn in the same edge
  w.set(false);
  EXPECT_EQ(first_calls, 2);
  EXPECT_EQ(second_calls, 0);
  EXPECT_EQ(w.live_listeners(), 1u);
}

TEST(WireCompaction, SelfRemovalInsideCallbackIsSafe) {
  Scheduler s;
  Wire w(s, "w");
  int one_shot_calls = 0, other_calls = 0;
  Wire::ListenerId self_id = 0;
  self_id = w.on_edge([&](Edge, Tick) {
    ++one_shot_calls;
    w.remove_listener(self_id);
  });
  w.on_edge([&](Edge, Tick) { ++other_calls; });
  w.set(true);
  w.set(false);
  w.set(true);
  EXPECT_EQ(one_shot_calls, 1);
  EXPECT_EQ(other_calls, 3);
}

TEST(WireCompaction, ThrowingListenerDoesNotDisableCompaction) {
  Scheduler s;
  Wire w(s, "w");
  // Regression: an exception escaping a listener used to skip the
  // delivery-depth decrement, leaving compaction disabled forever.
  w.on_edge([](Edge, Tick) { throw std::runtime_error("listener boom"); });
  EXPECT_THROW(w.set(true), std::runtime_error);
  for (int i = 0; i < 1'000; ++i) {
    const Wire::ListenerId id = w.on_edge([](Edge, Tick) {});
    w.remove_listener(id);
  }
  EXPECT_LE(w.listener_slots(), 3u);
  EXPECT_EQ(w.live_listeners(), 1u);
}

TEST(WireCompaction, RemoveListenerIsIdempotent) {
  Scheduler s;
  Wire w(s, "w");
  const Wire::ListenerId id = w.on_edge([](Edge, Tick) {});
  w.remove_listener(id);
  w.remove_listener(id);          // double-remove: no double counting
  w.remove_listener(id + 1000);   // unknown id: no-op
  EXPECT_EQ(w.live_listeners(), 0u);
}

// --- Pulse falls nothing reads ---------------------------------------------
//
// Each case drives a wire twice: bare, where a pulse's fall lands without
// an event, and with a witness listener of every edge, which keeps the
// fall an event.  What events at the fall tick read, filed before and
// after the fall's place, must agree.

/// One read of the wire: when, and its level, fall count and last change.
struct Seen {
  Tick at = 0;
  bool level = false;
  std::uint64_t falls = 0;
  Tick last = 0;
  std::uint64_t masked = 0;
  bool operator==(const Seen&) const = default;
};

struct FallBench {
  Scheduler s;
  Wire w{s, "w"};
  std::vector<Seen> seen;

  explicit FallBench(bool witness) {
    if (witness) w.on_edge([](Edge, Tick) {});
  }
  void probe() {
    seen.push_back({s.now(), w.level(), w.falling_count(), w.last_change(),
                    w.fault_masked_drives()});
  }
  /// Files a probe at `t` now, so it runs after everything already filed
  /// for `t` and before anything filed later.
  void probe_at(Tick t) {
    s.schedule_at(t, [this] { probe(); });
  }
};

/// The reads of both runs, and whether the bare one ran fewer events.
template <typename Drive>
void expect_same_reads(Drive drive, bool fewer_events = true) {
  FallBench bare(false);
  FallBench seen(true);
  drive(bare);
  drive(seen);
  EXPECT_EQ(bare.seen, seen.seen);
  EXPECT_EQ(bare.s.now(), seen.s.now());  // the run ends where it would
  if (fewer_events) {
    EXPECT_LT(bare.s.executed(), seen.s.executed());
  } else {
    EXPECT_EQ(bare.s.executed(), seen.s.executed());
  }
}

TEST(UnreadFall, ReadsAtTheFallTickMatchTheEvent) {
  expect_same_reads([](FallBench& b) {
    b.probe_at(us(3));  // filed before the fall's place
    b.s.schedule_at(us(1), [&b] {
      b.w.pulse(us(2));
      b.probe_at(us(3));  // filed after it
    });
    b.s.run_until(us(2));
    b.probe();
    b.s.run_until(us(3));
    b.probe();
    b.s.run_all();
    b.probe();
  });
  FallBench b(false);
  b.w.pulse(us(2));
  EXPECT_TRUE(b.s.idle());  // the fall is no event...
  b.s.run_all();            // ...but the run still ends where it would
  EXPECT_EQ(b.s.now(), us(2));
  EXPECT_FALSE(b.w.level());
  EXPECT_EQ(b.w.falling_count(), 1u);
  EXPECT_EQ(b.w.last_change(), us(2));
}

TEST(UnreadFall, ReaderRegisteredMidPulseGetsTheFallInPlace) {
  const auto run = [](bool witness) {
    FallBench b(witness);
    std::vector<std::string> order;
    b.s.schedule_at(us(3), [&] { order.emplace_back("before"); });
    b.s.schedule_at(us(1), [&] {
      b.w.pulse(us(2));
      b.s.schedule_at(us(3), [&] { order.emplace_back("after"); });
    });
    b.s.schedule_at(us(2), [&] {
      b.w.on_edge([&](Edge e, Tick t) {
        order.push_back((e == Edge::kFalling ? "fall@" : "rise@") +
                        std::to_string(t));
      });
    });
    b.s.run_all();
    return order;
  };
  EXPECT_EQ(run(false), run(true));
  EXPECT_EQ(run(false),
            (std::vector<std::string>{"before", "fall@3000", "after"}));
}

TEST(UnreadFall, FaultForcedMidPulse) {
  expect_same_reads(
      [](FallBench& b) {
        b.s.schedule_at(us(1), [&b] { b.w.pulse(us(2)); });
        b.s.schedule_at(us(2), [&b] { b.w.force_fault(true); });
        b.probe_at(us(3));
        b.s.schedule_at(us(4), [&b] { b.w.force_fault(std::nullopt); });
        b.probe_at(us(4));
        b.s.run_all();
        b.probe();
      },
      /*fewer_events=*/false);
}

TEST(UnreadFall, TimeWarpKeepsTheFallAnEvent) {
  const auto run = [](bool witness) {
    FallBench b(witness);
    b.s.set_time_warp([](Tick, Tick requested) { return requested + 7; });
    b.w.pulse(us(2));
    b.probe_at(us(2) + 7);
    b.s.run_all();
    b.probe();
    return std::pair{b.seen, b.s.warped_events()};
  };
  EXPECT_EQ(run(false), run(true));
  EXPECT_EQ(run(false).second, 2u);  // the fall and the probe
}

TEST(UnreadFall, SecondPulseWhileTheFirstFallWaits) {
  expect_same_reads([](FallBench& b) {
    b.s.schedule_at(0, [&b] { b.w.pulse(us(5)); });
    b.s.schedule_at(us(1), [&b] { b.w.pulse(us(1)); });  // first still high
    b.probe_at(us(2));
    b.probe_at(us(5));
    b.s.schedule_at(us(7), [&b] { b.w.pulse(us(2)); });
    b.s.schedule_at(us(8), [&b] { b.w.pulse(us(2)); });
    b.probe_at(us(9));
    b.probe_at(us(10));
    b.s.schedule_at(us(12), [&b] { b.w.pulse(us(1)); });
    b.s.run_all();
    b.probe();
  });
}

TEST(UnreadFall, DirectDrivesAroundAWaitingFall) {
  expect_same_reads([](FallBench& b) {
    b.s.schedule_at(0, [&b] { b.w.pulse(us(5)); });
    b.s.schedule_at(us(1), [&b] { b.w.set(false); });
    b.probe_at(us(2));
    b.s.schedule_at(us(3), [&b] { b.w.set(true); });  // falls again at 5 us
    b.probe_at(us(5));
    b.s.schedule_at(us(8), [&b] { b.w.pulse(us(1)); });
    // Pulled low, then pulsed again before the first fall's place: that
    // fall still ends the second pulse early.
    b.s.schedule_at(us(20), [&b] { b.w.pulse(us(5)); });
    b.s.schedule_at(us(21), [&b] { b.w.set(false); });
    b.s.schedule_at(us(22), [&b] { b.w.pulse(us(10)); });
    b.probe_at(us(25));
    b.probe_at(us(30));
    b.s.run_all();
    b.probe();
  });
}

TEST(UnreadFall, DelayedConnectionPassesTheFallOn) {
  const auto run = [](bool witness) {
    Scheduler s;
    Wire a(s, "a"), b(s, "b");
    if (witness) b.on_edge([](Edge, Tick) {});
    Connection conn = connect(a, b, ns(1));
    std::vector<Seen> seen;
    const auto probe = [&] {
      seen.push_back({s.now(), b.level(), b.falling_count(), b.last_change(),
                      0});
    };
    for (int i = 0; i < 3; ++i) {
      s.schedule_at(us(static_cast<std::uint64_t>(10 * i)),
                    [&a] { a.pulse(us(1)); });
      s.schedule_at(us(static_cast<std::uint64_t>(10 * i + 1)) + 1, probe);
    }
    // Disconnected while the second pulse is high: its fall is not passed
    // on, as a jumper pulled mid-pulse would not.
    s.schedule_at(us(10) + 500, [&conn] { conn.disconnect(); });
    s.run_all();
    probe();
    return std::pair{seen, s.executed()};
  };
  const auto bare = run(false);
  const auto seen = run(true);
  EXPECT_EQ(bare.first, seen.first);
  EXPECT_LT(bare.second, seen.second);
  EXPECT_EQ(bare.first.back().falls, 1u);
  EXPECT_TRUE(bare.first.back().level);
}

// Two delayed connections in a row, a -> b -> c: each hop passes the fall
// on, and a pulse narrower than either hop's delay keeps its fall an
// event on that hop.  The witnesses read every edge of c, or of b and c.
TEST(UnreadFall, ChainedConnectionsPassTheFallOnHopByHop) {
  const auto run = [](int witnesses) {
    Scheduler s;
    Wire a(s, "a"), b(s, "b"), c(s, "c");
    if (witnesses >= 1) c.on_edge([](Edge, Tick) {});
    if (witnesses >= 2) b.on_edge([](Edge, Tick) {});
    Connection ab = connect(a, b, ns(1));
    Connection bc = connect(b, c, ns(5));
    std::vector<Seen> seen;
    const auto probe = [&] {
      for (const Wire* w : {&b, &c}) {
        seen.push_back(
            {s.now(), w->level(), w->falling_count(), w->last_change(), 0});
      }
    };
    // Widths around both delays: narrower than the first hop, between
    // the two, equal to the second, and wide.
    const Tick widths[] = {ns(3), 1, ns(1), ns(4), ns(5), ns(6), us(1)};
    Tick t = 0;
    for (const Tick width : widths) {
      s.schedule_at(t, [&a, width] { a.pulse(width); });
      for (Tick at = t; at <= t + width + ns(8); ++at) s.schedule_at(at, probe);
      t += us(2);
    }
    s.run_all();
    probe();
    return std::tuple{seen, s.now(), s.executed()};
  };
  const auto bare = run(0);
  for (const int witnesses : {1, 2}) {
    const auto seen = run(witnesses);
    EXPECT_EQ(std::get<0>(bare), std::get<0>(seen)) << witnesses;
    EXPECT_EQ(std::get<1>(bare), std::get<1>(seen)) << witnesses;
    EXPECT_LT(std::get<2>(bare), std::get<2>(seen)) << witnesses;
  }
  EXPECT_EQ(std::get<0>(bare).back().falls, 7u);  // c fell after each pulse
  EXPECT_FALSE(std::get<0>(bare).back().level);
}

// A forwarder's input pulled low and driven high again while its pulse's
// fall still waits: the re-rise ends at that fall, also when the fall
// lands before the re-rise would reach the output.
TEST(UnreadFall, ReRiseBeforeTheWaitingFallIsForwarded) {
  for (const Tick rerise : {us(3), us(5) - ns(3), us(5) - 1}) {
    const auto run = [rerise](bool witness) {
      Scheduler s;
      Wire a(s, "a"), b(s, "b");
      if (witness) b.on_edge([](Edge, Tick) {});
      Connection conn = connect(a, b, ns(5));
      std::vector<Seen> seen;
      s.schedule_at(0, [&a] { a.pulse(us(5)); });
      s.schedule_at(us(1), [&a] { a.set(false); });
      s.schedule_at(rerise, [&a] { a.set(true); });
      for (Tick at = us(5) - ns(6); at <= us(5) + ns(8); ++at) {
        s.schedule_at(at, [&] {
          seen.push_back(
              {s.now(), b.level(), b.falling_count(), b.last_change(), 0});
        });
      }
      s.run_all();
      return std::pair{seen, s.now()};
    };
    EXPECT_EQ(run(false), run(true)) << rerise;
    EXPECT_FALSE(run(false).first.back().level) << rerise;
  }
}

}  // namespace
}  // namespace offramps::sim
