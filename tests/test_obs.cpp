// obs:: observability layer: metrics registry semantics, the
// enabled/disabled gate, chrome-trace export, instrumentation of the
// scheduler/detector paths, and the fleet-report byte-identity contract
// (enabling metrics must not change a single byte of the deterministic
// report).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "svc/fleet.hpp"
#include "svc/json.hpp"

namespace offramps {
namespace {

/// Every test leaves the process-wide obs state as it found it:
/// disabled, registry zeroed, no trace session.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
    if (obs::TraceSession::active()) obs::TraceSession::stop();
  }
};

TEST_F(ObsTest, CounterGaugeHistogramBasics) {
  obs::Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g;
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 7);

  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1005.5);
  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST_F(ObsTest, RegistryHandlesAreStableAndNamed) {
  obs::Counter& a = obs::Registry::instance().counter("test.stable");
  obs::Counter& b = obs::Registry::instance().counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  // First registration fixes the bounds; later calls return it unchanged.
  obs::Histogram& h1 =
      obs::Registry::instance().histogram("test.h", {1.0, 2.0});
  obs::Histogram& h2 =
      obs::Registry::instance().histogram("test.h", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST_F(ObsTest, RegistryJsonIsValidAndDeterministic) {
  obs::Registry::instance().counter("zz.last").add(2);
  obs::Registry::instance().counter("aa.first").add(1);
  obs::Registry::instance().gauge("mid.gauge").set(-5);
  obs::Registry::instance().histogram("mid.hist", {1.0}).observe(0.5);

  const std::string text = obs::Registry::instance().to_json();
  const svc::json::Value doc = svc::json::parse(text);
  ASSERT_TRUE(doc.is_object());
  const svc::json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  // Sorted iteration: aa.first renders before zz.last.
  EXPECT_LT(text.find("aa.first"), text.find("zz.last"));
  EXPECT_EQ(counters->number_or("aa.first", -1.0), 1.0);
  EXPECT_EQ(counters->number_or("zz.last", -1.0), 2.0);

  const svc::json::Value* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const svc::json::Value* mid = gauges->find("mid.gauge");
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->number_or("value", 0.0), -5.0);

  const svc::json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const svc::json::Value* h = hists->find("mid.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->number_or("count", 0.0), 1.0);

  // Same registrations, same document.
  EXPECT_EQ(obs::Registry::instance().to_json(), text);
}

TEST_F(ObsTest, DisabledGateSuppressesSchedulerInstrumentation) {
  ASSERT_FALSE(obs::enabled());
  sim::Scheduler sched;
  for (int i = 0; i < 32; ++i) {
    sched.schedule_in(sim::Tick(i + 1), [] {});
  }
  sched.run_all();
  // The counter may not even exist yet; if it does it must read zero.
  EXPECT_EQ(obs::Registry::instance().counter("sim.scheduler.events").value(),
            0u);
}

TEST_F(ObsTest, EnabledSchedulerRecordsEventsDepthAndLatency) {
  obs::set_enabled(true);
  ASSERT_TRUE(obs::enabled());
  sim::Scheduler sched;
  for (int i = 0; i < 100; ++i) {
    sched.schedule_in(sim::Tick(i + 1), [] {});
  }
  sched.run_all();
  obs::set_enabled(false);

  EXPECT_EQ(obs::Registry::instance().counter("sim.scheduler.events").value(),
            100u);
  // All 100 events were queued up-front, so the depth high-water saw them.
  EXPECT_EQ(obs::Registry::instance().gauge("sim.scheduler.queue_depth").max(),
            100);
  // The wall-clock histogram times 1 event in 64: the 1st and the 65th.
  EXPECT_EQ(obs::Registry::instance()
                .histogram("sim.scheduler.callback_us",
                           obs::latency_buckets_us())
                .count(),
            2u);
}

TEST_F(ObsTest, LatencySamplingThinsHistogramButNotCounters) {
  static_assert(obs::kLatencySampleEvery == 64);
  const auto run = [](sim::Scheduler& sched, int events) {
    for (int i = 0; i < events; ++i) {
      sched.schedule_in(sim::Tick(i + 1), [] {});
    }
    sched.run_all();
  };
  const auto timed = [] {
    return obs::Registry::instance()
        .histogram("sim.scheduler.callback_us", obs::latency_buckets_us())
        .count();
  };
  obs::set_enabled(true);
  sim::Scheduler sched;
  // The first event is timed, the next 63 are only counted...
  run(sched, 64);
  EXPECT_EQ(timed(), 1u);
  EXPECT_EQ(obs::Registry::instance().counter("sim.scheduler.events").value(),
            64u);
  // ...and the 65th is timed again: the countdown spans run_all calls.
  run(sched, 1);
  obs::set_enabled(false);
  EXPECT_EQ(timed(), 2u);
  EXPECT_EQ(obs::Registry::instance().counter("sim.scheduler.events").value(),
            65u);
}

TEST_F(ObsTest, SpansAreInertWithoutASession) {
  const std::size_t before = obs::TraceSession::event_count();
  {
    obs::Span span("ignored", "test");
  }
  EXPECT_EQ(obs::TraceSession::event_count(), before);
}

TEST_F(ObsTest, TraceSessionEmitsValidTraceEventFormat) {
  obs::TraceSession::start();
  {
    obs::Span outer("phase-a", "test");
    obs::Span inner("phase-b", "test");
  }
  obs::TraceSession::stop();
  {
    // Recorded after stop()? No: spans constructed after stop are inert,
    // and these two were armed before it fired at destruction order.
    obs::Span late("late", "test");
  }
  EXPECT_EQ(obs::TraceSession::event_count(), 2u);

  const std::string text = obs::TraceSession::to_json();
  const svc::json::Value doc = svc::json::parse(text);
  ASSERT_TRUE(doc.is_object());
  const svc::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata event plus the two spans.
  ASSERT_GE(events->items.size(), 3u);
  bool saw_a = false;
  bool saw_b = false;
  for (const svc::json::Value& ev : events->items) {
    ASSERT_TRUE(ev.is_object());
    const std::string ph = ev.string_or("ph", "");
    EXPECT_TRUE(ph == "X" || ph == "M") << ph;
    if (ev.string_or("name", "") == "phase-a") {
      saw_a = true;
      EXPECT_EQ(ph, "X");
      EXPECT_GE(ev.number_or("dur", -1.0), 0.0);
      EXPECT_GE(ev.number_or("ts", -1.0), 0.0);
      EXPECT_EQ(ev.string_or("cat", ""), "test");
    }
    if (ev.string_or("name", "") == "phase-b") saw_b = true;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST_F(ObsTest, TraceNamesAreEscaped) {
  obs::TraceSession::start();
  {
    obs::Span span("quote\"back\\slash", "test");
    obs::Span newline("line\nbreak", "test");
  }
  obs::TraceSession::stop();
  const std::string text = obs::TraceSession::to_json();
  EXPECT_NO_THROW(svc::json::parse(text));
  EXPECT_NE(text.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(text.find("\"line\\nbreak\""), std::string::npos);
}

/// The one JSON string writer, byte by byte: every control byte, the two
/// characters JSON reserves, DEL and a UTF-8 sequence.
TEST(ObsJson, EscapesEveryControlByteAndPassesTheRest) {
  const char* const kShort[] = {"\\b", "\\t", "\\n", nullptr, "\\f",
                                "\\r"};
  for (int c = 0; c < 0x20; ++c) {
    char want[16];
    std::snprintf(want, sizeof(want), "\"\\u%04x\"", c);
    if (c >= 8 && c <= 13 && kShort[c - 8] != nullptr) {
      std::snprintf(want, sizeof(want), "\"%s\"", kShort[c - 8]);
    }
    std::string out;
    obs::append_json_string(out, std::string(1, static_cast<char>(c)));
    EXPECT_EQ(out, want) << "byte " << c;
  }
  const std::pair<std::string, std::string> kCases[] = {
      {"\"", "\"\\\"\""},
      {"\\", "\"\\\\\""},
      {"\x7f", "\"\x7f\""},
      {"\xc3\xa9t\xc3\xa9", "\"\xc3\xa9t\xc3\xa9\""},  // "été"
      {"", "\"\""},
      {"rig-1 a/b", "\"rig-1 a/b\""},
  };
  for (const auto& [in, want] : kCases) {
    std::string out = "x";  // appends, never replaces
    obs::append_json_string(out, in);
    EXPECT_EQ(out, "x" + want);
  }
  // Every escape it emits reads back through the repo's own reader
  // except \u00XX, which svc::json rejects rather than mis-decodes.
  std::string doc;
  obs::append_json_string(doc, "a\"b\\c\nd\te\rf\bg\fh\x7f\xc3\xa9");
  EXPECT_EQ(svc::json::parse(doc).string,
            "a\"b\\c\nd\te\rf\bg\fh\x7f\xc3\xa9");
}

TEST(ObsJson, NumberRenderingsMatchPrintf) {
  EXPECT_EQ(obs::format_fixed(0.1), "0.100000");
  EXPECT_EQ(obs::format_fixed(-2.5), "-2.500000");
  EXPECT_EQ(obs::format_fixed(1.7976931348623157e308).size(), 316u);
  EXPECT_EQ(obs::format_general(0.1), "0.1");
  EXPECT_EQ(obs::format_general(1234567.0), "1.23457e+06");
  EXPECT_EQ(obs::format_general(42.0), "42");
}

/// A fleet small enough for a unit test: two rigs, one sabotaged.
std::vector<svc::RigSpec> tiny_fleet() {
  std::vector<svc::RigSpec> specs = svc::Fleet::demo_specs(2, 1);
  for (auto& s : specs) {
    s.cube_mm = 6.0;
    s.height_mm = 2.0;
  }
  return specs;
}

svc::FleetOptions tiny_options(std::size_t workers) {
  svc::FleetOptions options;
  options.workers = workers;
  options.channels = svc::ChannelSet{}.counts_only();  // keeps the tiny fleet fast
  return options;
}

TEST_F(ObsTest, FleetReportByteIdenticalWithMetricsEnabled) {
  const std::vector<svc::RigSpec> specs = tiny_fleet();

  svc::Fleet plain(tiny_options(1));
  const std::string baseline = plain.run(specs).to_json();

  obs::set_enabled(true);
  svc::Fleet instrumented1(tiny_options(1));
  const svc::FleetReport r1 = instrumented1.run(specs);
  svc::Fleet instrumented4(tiny_options(4));
  const svc::FleetReport r4 = instrumented4.run(specs);
  obs::set_enabled(false);

  EXPECT_EQ(r1.to_json(), baseline);
  EXPECT_EQ(r4.to_json(), baseline);

  // The metrics ride in a separate section; an empty section is the
  // plain document byte for byte.
  EXPECT_EQ(r4.to_json_with_metrics(""), baseline);
  const std::string with = r4.to_json_with_metrics(r4.metrics_json());
  EXPECT_NE(with, baseline);
  const svc::json::Value doc = svc::json::parse(with);
  ASSERT_TRUE(doc.is_object());
  const svc::json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  const svc::json::Value* phases = metrics->find("phases");
  ASSERT_NE(phases, nullptr);
  // Deterministic phase keys: one reference object, rigs by name.
  EXPECT_NE(phases->find("reference/0"), nullptr);
  EXPECT_NE(phases->find("rig/rig-0"), nullptr);
  EXPECT_NE(phases->find("rig/rig-1"), nullptr);
  const svc::json::Value* registry = metrics->find("registry");
  ASSERT_NE(registry, nullptr);
  const svc::json::Value* counters = registry->find("counters");
  ASSERT_NE(counters, nullptr);
  // The instrumented run drove the scheduler and detector counters.
  EXPECT_GT(counters->number_or("sim.scheduler.events", 0.0), 0.0);
  EXPECT_GT(counters->number_or("svc.detector.windows", 0.0), 0.0);
}

TEST_F(ObsTest, FleetTimingsCoverEveryPhaseEvenWhenDisabled) {
  ASSERT_FALSE(obs::enabled());
  svc::Fleet fleet(tiny_options(2));
  const svc::FleetReport report = fleet.run(tiny_fleet());
  ASSERT_EQ(report.timings.size(), 3u);  // 1 object + 2 rigs
  EXPECT_EQ(report.timings[0].name, "reference/0");
  EXPECT_EQ(report.timings[1].name, "rig/rig-0");
  EXPECT_EQ(report.timings[2].name, "rig/rig-1");
  for (const auto& t : report.timings) {
    EXPECT_GE(t.seconds, 0.0) << t.name;
  }
}

}  // namespace
}  // namespace offramps
