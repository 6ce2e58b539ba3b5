// svc::Fleet: spec parsing, the demo matrix, detection + safe-stop on a
// small mixed fleet, the determinism contract - the fleet JSON report
// must be byte-identical at any worker count - and the supervision
// layer: chaos campaigns classify as recovered/degraded/lost with zero
// false alarms, and checkpoint/resume reproduces the full report byte
// for byte without re-simulating completed rigs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "host/chaos.hpp"
#include "sim/error.hpp"
#include "svc/fleet.hpp"
#include "svc/json.hpp"

namespace {

using offramps::host::parse_chaos;
using offramps::svc::Fleet;
using offramps::svc::FleetOptions;
using offramps::svc::FleetReport;
using offramps::svc::parse_sabotage;
using offramps::svc::RigSpec;
using offramps::svc::RigStatus;
using offramps::svc::Sabotage;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// fnv1a of small_fleet()'s JSON report.  A change that means to alter
// the report re-records it and says why.
constexpr std::uint64_t kSmallFleetReportFnv = 0xb1ed0f0fd0b079f2ull;

// fnv1a of the 16-rig demo campaign's JSON report (four Flaw3D rigs; the
// `offramps_fleetd --demo 16 --sabotage 4` campaign and the benchmark's
// `campaign` workload) at 4 workers.  Re-recorded only by a change that
// means to alter the report, saying why.
constexpr std::uint64_t kDemoCampaignReportFnv = 0x2d85114574b054e7ull;

// A fleet small enough for repeated runs but with real sabotage in it:
// two clean rigs and one Flaw3D reduction rig sharing one small object.
std::vector<RigSpec> small_fleet() {
  std::vector<RigSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "t-" + std::to_string(i);
    specs[i].seed = 500 + i;
    specs[i].cube_mm = 6.0;
    specs[i].height_mm = 1.5;
  }
  specs[1].sabotage = parse_sabotage("reduce:0.5");
  return specs;
}

TEST(Sabotage, ParseAndRoundTrip) {
  EXPECT_EQ(parse_sabotage("").kind, Sabotage::Kind::kNone);
  EXPECT_EQ(parse_sabotage("clean").kind, Sabotage::Kind::kNone);
  EXPECT_EQ(parse_sabotage("none").to_string(), "clean");

  const Sabotage red = parse_sabotage("reduce:0.85");
  EXPECT_EQ(red.kind, Sabotage::Kind::kReduction);
  EXPECT_DOUBLE_EQ(red.factor, 0.85);
  EXPECT_EQ(red.to_string(), "reduce:0.85");

  const Sabotage rel = parse_sabotage("relocate:10");
  EXPECT_EQ(rel.kind, Sabotage::Kind::kRelocation);
  EXPECT_EQ(rel.every_n, 10u);
  EXPECT_EQ(rel.to_string(), "relocate:10");
}

// The rendered spec is parsed back by the session hello and feeds the
// campaign digest, so every factor must survive the round trip.  Factors
// that two decimals name render as they always have.
TEST(Sabotage, ReductionFactorSurvivesItsRoundTrip) {
  struct Row {
    double factor;
    const char* text;  // nullptr: any spelling that parses back
  };
  for (const Row& row : {Row{0.5, "reduce:0.50"}, Row{0.85, "reduce:0.85"},
                         Row{0.9, "reduce:0.90"}, Row{0.98, "reduce:0.98"},
                         Row{0.991, nullptr}, Row{0.994, nullptr},
                         Row{0.998, nullptr}}) {
    Sabotage s;
    s.kind = Sabotage::Kind::kReduction;
    s.factor = row.factor;
    const std::string text = s.to_string();
    EXPECT_EQ(parse_sabotage(text).factor, row.factor) << text;
    if (row.text != nullptr) {
      EXPECT_EQ(text, row.text);
    }
  }
}

TEST(Sabotage, ParseRejectsMalformed) {
  EXPECT_THROW(parse_sabotage("bogus"), offramps::Error);
  EXPECT_THROW(parse_sabotage("reduce:"), offramps::Error);
  EXPECT_THROW(parse_sabotage("reduce:0"), offramps::Error);    // no-op
  EXPECT_THROW(parse_sabotage("reduce:1.0"), offramps::Error);  // no-op
  EXPECT_THROW(parse_sabotage("reduce:-0.5"), offramps::Error);
  EXPECT_THROW(parse_sabotage("relocate:0"), offramps::Error);
  EXPECT_THROW(parse_sabotage("relocate:abc"), offramps::Error);
}

TEST(Fleet, DemoSpecs) {
  const auto specs = Fleet::demo_specs(8, 3);
  ASSERT_EQ(specs.size(), 8u);
  std::size_t dirty = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].name, "rig-" + std::to_string(i));
    EXPECT_EQ(specs[i].seed, 1000 + i);
    dirty += specs[i].sabotage.kind != Sabotage::Kind::kNone ? 1 : 0;
  }
  EXPECT_EQ(dirty, 3u);
  EXPECT_THROW(Fleet::demo_specs(2, 3), offramps::Error);
}

TEST(Fleet, SpecsFromJson) {
  FleetOptions options;
  const auto specs = Fleet::specs_from_json(
      "{ \"workers\": 2, \"safe_stop\": false, \"rigs\": [\n"
      "    {\"name\": \"alpha\", \"seed\": 7, \"cube_mm\": 6,\n"
      "     \"height_mm\": 1.5, \"sabotage\": \"reduce:0.85\"},\n"
      "    {} ] }",
      options);
  EXPECT_EQ(options.workers, 2u);
  EXPECT_FALSE(options.safe_stop);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "alpha");
  EXPECT_EQ(specs[0].seed, 7u);
  EXPECT_DOUBLE_EQ(specs[0].cube_mm, 6.0);
  EXPECT_EQ(specs[0].sabotage.kind, Sabotage::Kind::kReduction);
  // Defaulted rig: name filled at run time, indexed default seed, clean.
  EXPECT_TRUE(specs[1].name.empty());
  EXPECT_EQ(specs[1].seed, 1001u);
  EXPECT_DOUBLE_EQ(specs[1].cube_mm, 8.0);
  EXPECT_EQ(specs[1].sabotage.kind, Sabotage::Kind::kNone);
}

// The report's per-channel keys are read off the verdict rows; a channel
// that was not instantiated (disabled group, lost rig) renders as 0, its
// final counts as matching and the static oracle as quiet.
TEST(FleetReport, PerChannelKeysRenderFromVerdictRows) {
  using offramps::svc::Channel;
  FleetReport report;
  report.rigs.resize(2);
  report.rigs[0].detector.channels = {
      {Channel::kGoldenCompare, true, true, 9, 40, 3},
      {Channel::kGoldenFree, true, false, 0, 41, 2},
      {Channel::kPower, true, false, 0, 12, 1},
      {Channel::kAcoustic, true, false, 0, 13, 4},
      {Channel::kVibration, true, false, 0, 14, 5},
      {Channel::kFinalCounts, true, true, 40, 1, 1},
      {Channel::kStaticOracle, true, true, 40, 1, 1},
  };
  const std::string json = report.to_json();
  const std::size_t second =
      json.find("\"name\"", json.find("\"name\"") + 1);
  ASSERT_NE(second, std::string::npos);
  const std::string first = json.substr(0, second);
  const std::string rest = json.substr(second);
  for (const char* key :
       {"\"compare_mismatches\": 3", "\"golden_free_violations\": 2",
        "\"power_windows_compared\": 12", "\"power_mismatches\": 1",
        "\"acoustic_windows_compared\": 13", "\"acoustic_mismatches\": 4",
        "\"vibration_windows_compared\": 14",
        "\"vibration_mismatches\": 5", "\"final_counts_match\": false",
        "\"static_trojan_suspected\": true"}) {
    EXPECT_NE(first.find(key), std::string::npos) << key;
  }
  for (const char* key :
       {"\"compare_mismatches\": 0", "\"golden_free_violations\": 0",
        "\"power_windows_compared\": 0", "\"vibration_mismatches\": 0",
        "\"final_counts_match\": true",
        "\"static_trojan_suspected\": false"}) {
    EXPECT_NE(rest.find(key), std::string::npos) << key;
  }
}

// Rig names and failure causes are arbitrary bytes (a spec file, a
// replayed hello, exception text); the report must stay valid JSON.
TEST(FleetReport, EscapesControlCharactersAndLongNames) {
  FleetReport report;
  report.rigs.resize(3);
  report.rigs[0].spec.name = "a\nb\tc\"d\\e";
  report.rigs[1].spec.name = std::string(1024, 'n');
  report.rigs[2].spec.name = "x\x01y";
  report.rigs[2].failure_cause = "cause\r\f\b";
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"x\\u0001y\""), std::string::npos);
  EXPECT_NE(json.find("\"failure_cause\": \"cause\\r\\f\\b\""),
            std::string::npos);

  const offramps::svc::json::Value doc = offramps::svc::json::parse(json);
  const offramps::svc::json::Value* rigs = doc.find("rigs");
  ASSERT_NE(rigs, nullptr);
  ASSERT_EQ(rigs->items.size(), 3u);
  EXPECT_EQ(rigs->items[0].string_or("name", ""), "a\nb\tc\"d\\e");
  EXPECT_EQ(rigs->items[1].string_or("name", ""), std::string(1024, 'n'));
  EXPECT_EQ(rigs->items[2].string_or("name", ""), "x\x01y");
  EXPECT_EQ(rigs->items[2].string_or("failure_cause", ""), "cause\r\f\b");
}

TEST(Fleet, SpecsFromJsonRejectsMalformed) {
  // Every message carries one "fleet spec: " prefix, then `where` (the
  // rig entry, for a rig's errors), and names `needle`.
  const auto rejects = [](const std::string& text, const std::string& where,
                          const std::string& needle) {
    try {
      FleetOptions o;
      Fleet::specs_from_json(text, o);
      ADD_FAILURE() << "accepted " << text;
    } catch (const offramps::Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("fleet spec: " + where, 0), 0u) << what;
      EXPECT_EQ(what.find("fleet spec: ", 1), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  rejects("{ \"rigs\": \"nope\" }", "", "rigs");
  rejects("not json", "", "json");
  rejects("{ \"rigs\": [{}, {\"sabotage\": \"bogus\"}] }", "rig 1: ",
          "bogus");
  rejects("{ \"rigs\": [{}, {\"sabotage\": \"reduce:7\"}] }", "rig 1: ",
          "reduce:7");
  rejects("{ \"rigs\": [{}, 3] }", "rig 1: ", "object");
  // Integer fields: negative, fractional, out of range or non-finite
  // numbers are spec errors that name the key, never silent casts.  So
  // is a watchdog limit that is not positive: it would declare a stall
  // at the first check that sees no new transaction, and an attempt or
  // checkpoint count below the flags' minimum of 1.  An unknown key, a
  // key of another JSON kind (null included) or a key given twice is an
  // error too, never read as "not given".
  for (const std::string& bad :
       {std::string("\"workers\": -1"), std::string("\"workers\": 2.5"),
        std::string("\"ring_capacity\": -1"),
        std::string("\"ring_capacity\": 0"),
        std::string("\"checkpoint_every\": -3"),
        std::string("\"checkpoint_every\": 0"),
        std::string("\"max_attempts\": 4294967296"),
        std::string("\"max_attempts\": 0"),
        std::string("\"backoff_ms\": 1e300"),
        std::string("\"reference_seed\": -42"),
        std::string("\"cache_max_mb\": -1"),
        std::string("\"stall_timeout_s\": -1"),
        std::string("\"stall_timeout_s\": 0"),
        std::string("\"stall_timout_s\": 1"),
        std::string("\"safe_stop\": \"false\""),
        std::string("\"use_power\": 0"),
        std::string("\"channels\": [\"power\"]"),
        std::string("\"channels\": \"\""),
        std::string("\"channels\": \"sound\""),
        std::string("\"workers\": null"),
        std::string("\"workers\": \"4\""),
        std::string("\"workers\": 2, \"workers\": 3"),
        std::string("\"rigs\": [], \"rigs\": [{}]")}) {
    rejects("{ " + bad + ", \"rigs\": [{}] }", "",
            bad.substr(0, bad.find(':')));
  }
  // Object sizes: non-positive or beyond the printer's travel are spec
  // errors naming the key.  1e300 used to reach the slicer's cast to an
  // integer layer count, 1e6 to slice for minutes before any supervision.
  for (const std::string& bad :
       {std::string("\"cube_mm\": 1e6"), std::string("\"cube_mm\": 0"),
        std::string("\"cube_mm\": -8"), std::string("\"cube_mm\": 1e300"),
        std::string("\"height_mm\": 1e300"),
        std::string("\"height_mm\": 211"),
        std::string("\"cube_mm\": \"12\""),
        std::string("\"seed\": \"7\""),
        std::string("\"sabotage\": 0.5"),
        std::string("\"chaos\": null"),
        std::string("\"name\": 3"),
        std::string("\"nmae\": \"a\""),
        std::string("\"seed\": 1, \"seed\": 2")}) {
    rejects("{ \"rigs\": [{}, {" + bad + "}] }", "rig 1: ",
            bad.substr(0, bad.find(':')));
  }
  rejects("{ \"rigs\": [{\"seed\": -1}] }", "rig 0: ", "seed");
  rejects("{ \"rigs\": [{\"seed\": 1.5}] }", "rig 0: ", "seed");
}

TEST(Fleet, CaptureStemsMustNotCollide) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fleet-capture-stems";
  const auto named = [](const std::vector<std::string>& names) {
    std::vector<RigSpec> specs(names.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].name = names[i];
      specs[i].seed = 500 + i;
      specs[i].cube_mm = 6.0;  // one object for the whole fleet
      specs[i].height_mm = 1.5;
    }
    return specs;
  };
  FleetOptions options;
  options.workers = 1;
  options.save_captures_dir = dir.string();

  // Two rigs of one file stem, or a rig on the golden capture's stem,
  // fail before anything runs or is written, naming the rigs and stem.
  struct Collision {
    std::vector<std::string> names;
    std::string stem;
  };
  const std::vector<Collision> collisions{{{"x", "x"}, "x"},
                                          {{"a/b", "a_b"}, "a_b"},
                                          {{"golden-0"}, "golden-0"}};
  for (const Collision& c : collisions) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    try {
      Fleet(options).run(named(c.names));
      ADD_FAILURE() << "accepted " << c.names[0];
    } catch (const offramps::Error& e) {
      const std::string what = e.what();
      for (const std::string& name : c.names) {
        EXPECT_NE(what.find("('" + name + "')"), std::string::npos) << what;
      }
      EXPECT_NE(what.find("'" + c.stem + "'"), std::string::npos) << what;
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << c.names[0];
  }

  // golden-1 is free when the fleet has a single object.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const FleetReport report = Fleet(options).run(named({"golden-1"}));
  ASSERT_EQ(report.rigs.size(), 1u);
  EXPECT_EQ(report.rigs[0].status, RigStatus::kOk);
  for (const char* file : {"golden-0.bin", "golden-1.bin", "golden-1.ofs"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / file)) << file;
  }
  std::filesystem::remove_all(dir);
}

// A checkpoint written into the captures dir must not take the name of a
// capture file, or of the `.tmp` a capture is first written as, however
// the path is spelled: one writer would overwrite the other.  A path that
// cannot be resolved is refused too, before anything runs.
TEST(Fleet, CheckpointMustNotShareACaptureFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fleet-checkpoint-caps";
  std::vector<RigSpec> specs(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = i == 0 ? "a" : "b";
    specs[i].seed = 600 + i;
    specs[i].cube_mm = 6.0;
    specs[i].height_mm = 1.0;
  }
  FleetOptions options;
  options.workers = 1;
  options.save_captures_dir = dir.string();
  const std::string unresolvable(300, 'x');  // a name over NAME_MAX
  for (const std::string name :
       {"a.bin", "a.ofs", "golden-0.bin", "./a.bin", "a.bin.tmp",
        "golden-0.bin.tmp", unresolvable.c_str()}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    options.checkpoint_path = (dir / name).string();
    try {
      Fleet(options).run(specs);
      ADD_FAILURE() << "accepted " << name;
    } catch (const offramps::Error& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << name;
  }
  // So may the captures dir be.
  options.save_captures_dir = (dir / "." / "").string();
  options.checkpoint_path = (dir / "a.bin").string();
  EXPECT_THROW(Fleet(options).run(specs), offramps::Error);
  EXPECT_TRUE(std::filesystem::is_empty(dir));

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  options.save_captures_dir = dir.string();
  options.checkpoint_path = (dir / "ck.bin").string();
  const FleetReport report = Fleet(options).run(specs);
  EXPECT_TRUE(report.complete);
  for (const char* file : {"ck.bin", "a.bin", "a.ofs", "golden-0.bin"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / file)) << file;
  }
  std::filesystem::remove_all(dir);
}

TEST(Fleet, DetectsSabotageAndSafeStops) {
  FleetOptions options;
  options.workers = 2;
  options.safe_stop = true;
  Fleet fleet(options);
  const FleetReport report = fleet.run(small_fleet());

  ASSERT_EQ(report.rigs.size(), 3u);
  EXPECT_EQ(report.alarmed(), 1u);
  EXPECT_EQ(report.mid_print_alarms(), 1u);

  const auto& dirty = report.rigs[1];
  EXPECT_TRUE(dirty.detector.alarmed);
  EXPECT_TRUE(dirty.detector.alarmed_mid_print);
  EXPECT_TRUE(dirty.safe_stopped);
  EXPECT_FALSE(dirty.print_finished);  // the plug was pulled mid-print
  EXPECT_FALSE(dirty.kill_reason.empty());

  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_FALSE(report.rigs[i].detector.alarmed) << "rig " << i;
    EXPECT_TRUE(report.rigs[i].print_finished) << "rig " << i;
    EXPECT_FALSE(report.rigs[i].safe_stopped) << "rig " << i;
  }

  // The JSON rendering carries the per-rig verdicts.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"true_alarms\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"false_alarms\": 0"), std::string::npos);
}

TEST(Fleet, ReportDeterministicAcrossWorkerCounts) {
  const auto specs = small_fleet();
  std::vector<std::uint64_t> digests;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    FleetOptions options;
    options.workers = workers;
    Fleet fleet(options);
    digests.push_back(fnv1a(fleet.run(specs).to_json()));
  }
  // Byte-identical report at 1, 2, and 8 workers.
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  // ...and across commits: a change that shifts any simulated outcome
  // (an event time, a count, a window) moves these bytes even when
  // every alarm still comes out right.  This report does not depend on
  // the order of same-tick events; SchedulerWheelProperty pins that.
  EXPECT_EQ(digests[0], kSmallFleetReportFnv);
}

TEST(Fleet, DemoCampaignReportIsPinned) {
  FleetOptions options;
  options.workers = 4;
  Fleet fleet(options);
  EXPECT_EQ(fnv1a(fleet.run(Fleet::demo_specs(16, 4)).to_json()),
            kDemoCampaignReportFnv);
}

// A chaos fleet: one sabotaged rig (must alarm), one crash-once rig
// (must recover on retry), one permanently stalled rig (must be
// quarantined), one clean rig (control).
std::vector<RigSpec> chaos_fleet() {
  std::vector<RigSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "c-" + std::to_string(i);
    specs[i].seed = 700 + i;
    specs[i].cube_mm = 6.0;
    specs[i].height_mm = 1.5;
  }
  specs[1].sabotage = parse_sabotage("reduce:0.5");
  specs[2].chaos = parse_chaos("crash:1");
  specs[3].chaos = parse_chaos("stall:99");
  return specs;
}

TEST(FleetChaos, ClassifiesRecoveredAndLostWithoutFalseAlarms) {
  FleetOptions options;
  options.workers = 2;
  const FleetReport report = Fleet(options).run(chaos_fleet());

  ASSERT_EQ(report.rigs.size(), 4u);
  EXPECT_EQ(report.rigs[0].status, RigStatus::kOk);
  EXPECT_EQ(report.rigs[0].attempts, 1u);

  // The sabotaged rig still alarms under supervision.
  EXPECT_EQ(report.rigs[1].status, RigStatus::kOk);
  EXPECT_TRUE(report.rigs[1].detector.alarmed);

  // crash:1 fails the first attempt, succeeds clean on the retry.
  EXPECT_EQ(report.rigs[2].status, RigStatus::kRecovered);
  EXPECT_EQ(report.rigs[2].attempts, 2u);
  EXPECT_NE(report.rigs[2].failure_cause.find("injected rig crash"),
            std::string::npos);
  EXPECT_FALSE(report.rigs[2].detector.alarmed) << "recovered, not alarmed";

  // stall:99 wedges the capture tap on every attempt: quarantined.
  EXPECT_EQ(report.rigs[3].status, RigStatus::kLost);
  EXPECT_EQ(report.rigs[3].attempts, 3u);
  EXPECT_FALSE(report.rigs[3].failure_cause.empty());
  EXPECT_FALSE(report.rigs[3].detector.alarmed)
      << "a quarantined rig is not a detection";

  // Zero false alarms: only the sabotaged rig alarmed.
  EXPECT_EQ(report.alarmed(), 1u);
  EXPECT_EQ(report.count(RigStatus::kRecovered), 1u);
  EXPECT_EQ(report.count(RigStatus::kLost), 1u);
  EXPECT_EQ(report.campaign(), "lost");

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"false_alarms\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"recovered\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"lost\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign\": \"lost\""), std::string::npos);
}

TEST(FleetChaos, PowerJamDegradesRingWedgeIsAbsorbed) {
  std::vector<RigSpec> specs(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "p-" + std::to_string(i);
    specs[i].seed = 800 + i;
    specs[i].cube_mm = 6.0;
    specs[i].height_mm = 1.5;
  }
  specs[0].chaos = parse_chaos("powerjam");   // every attempt
  specs[1].chaos = parse_chaos("ringwedge");  // every attempt

  FleetOptions options;
  options.workers = 2;
  const FleetReport report = Fleet(options).run(specs);

  // powerjam throws every full-fidelity attempt; the degrade ladder's
  // final attempt runs without the power channel and succeeds.
  EXPECT_EQ(report.rigs[0].status, RigStatus::kDegraded);
  EXPECT_EQ(report.rigs[0].attempts, 3u);
  EXPECT_EQ(report.rigs[0].detector.verdict(offramps::svc::Channel::kPower),
            nullptr);
  EXPECT_TRUE(report.rigs[0].print_finished);

  // ringwedge stops the pump draining; the ring's lossless backpressure
  // absorbs it - first-attempt success, with stalls on the books.
  EXPECT_EQ(report.rigs[1].status, RigStatus::kOk);
  EXPECT_EQ(report.rigs[1].attempts, 1u);
  EXPECT_GT(report.rigs[1].detector.backpressure_stalls, 0u);
  EXPECT_FALSE(report.rigs[1].detector.alarmed);

  EXPECT_EQ(report.alarmed(), 0u);
  EXPECT_EQ(report.campaign(), "degraded");
}

// A live rig performs only the attempt-level drills.  An order it would
// skip (a session drill, or cachetear, which no mode performs) fails
// before anything runs or is written, naming the rig and the drill.
TEST(FleetChaos, RejectsDrillsALiveRigDoesNotPerform) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fleet-chaos-reject";
  FleetOptions options;
  options.workers = 1;
  options.save_captures_dir = dir.string();
  for (const char* drill : {"disconnect", "framecorrupt", "cachetear"}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<RigSpec> specs(2);
    specs[1].name = "b";
    specs[1].chaos = parse_chaos(drill);
    try {
      Fleet(options).run(specs);
      ADD_FAILURE() << "accepted " << drill;
    } catch (const offramps::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rig 1 ('b')"), std::string::npos) << what;
      EXPECT_NE(what.find(drill), std::string::npos) << what;
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << drill;
  }
  std::filesystem::remove_all(dir);
}

TEST(FleetChaos, ReportDeterministicAcrossWorkerCounts) {
  const auto specs = chaos_fleet();
  std::vector<std::uint64_t> digests;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    FleetOptions options;
    options.workers = workers;
    digests.push_back(fnv1a(Fleet(options).run(specs).to_json()));
  }
  // Retries, quarantines and failure causes are keyed on (rig, attempt),
  // never on wall-clock or worker interleaving.
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(FleetCheckpoint, StopResumeReproducesFullReportByteForByte) {
  const auto specs = chaos_fleet();
  const std::string ck =
      ::testing::TempDir() + "/fleet-resume-test-ck.bin";
  std::filesystem::remove(ck);

  // The uninterrupted campaign is the reference output.
  FleetOptions plain;
  plain.workers = 2;
  const std::string full_json = Fleet(plain).run(specs).to_json();

  // Kill drill: complete 2 rigs, checkpoint, stop.
  FleetOptions first = plain;
  first.checkpoint_path = ck;
  first.stop_after = 2;
  const FleetReport partial = Fleet(first).run(specs);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.campaign(), "partial");
  EXPECT_EQ(partial.count(RigStatus::kPending), 2u);
  EXPECT_NE(partial.to_json(), full_json);
  ASSERT_TRUE(std::filesystem::exists(ck));

  // Resume: the remaining rigs run; the final report is byte-identical
  // to the never-interrupted run.
  FleetOptions second = plain;
  second.resume_path = ck;
  const FleetReport resumed = Fleet(second).run(specs);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.to_json(), full_json);

  // Completed rigs were skipped, not re-simulated: the resumed process
  // only ever timed the rigs it actually ran.
  for (const auto& t : resumed.timings) {
    EXPECT_EQ(t.name.find("rig/c-0"), std::string::npos) << t.name;
    EXPECT_EQ(t.name.find("rig/c-1"), std::string::npos) << t.name;
  }
  bool timed_c3 = false;
  for (const auto& t : resumed.timings) {
    timed_c3 = timed_c3 || t.name == "rig/c-3";
  }
  EXPECT_TRUE(timed_c3);
  std::filesystem::remove(ck);
}

// A checkpoint lists completed rigs in spec order whatever order they
// complete in, so its bytes do not depend on the worker count.  Rig 0
// prints the tallest object, so at 4 workers it completes last.
TEST(FleetCheckpoint, BytesIndependentOfWorkerCount) {
  std::vector<RigSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "w-" + std::to_string(i);
    specs[i].seed = 900 + i;
    specs[i].cube_mm = 6.0;
    specs[i].height_mm = 1.0;
  }
  specs[0].height_mm = 3.0;
  std::vector<std::vector<std::uint8_t>> bytes;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const std::string ck = ::testing::TempDir() + "/fleet-workers-" +
                           std::to_string(workers) + "-ck.bin";
    std::filesystem::remove(ck);
    FleetOptions options;
    options.workers = workers;
    options.checkpoint_path = ck;
    (void)Fleet(options).run(specs);
    bytes.push_back(offramps::core::read_file(ck, "test"));
    std::filesystem::remove(ck);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(FleetCheckpoint, ResumeRejectsEditedSpecs) {
  auto specs = small_fleet();
  const std::string ck =
      ::testing::TempDir() + "/fleet-digest-test-ck.bin";
  std::filesystem::remove(ck);

  FleetOptions options;
  options.workers = 2;
  options.checkpoint_path = ck;
  options.stop_after = 1;
  (void)Fleet(options).run(specs);
  ASSERT_TRUE(std::filesystem::exists(ck));

  // Resuming with a different fleet must be a hard error, not skew.
  specs[2].seed += 1;
  FleetOptions resume;
  resume.workers = 2;
  resume.resume_path = ck;
  EXPECT_THROW(Fleet(resume).run(specs), offramps::Error);
  std::filesystem::remove(ck);
}

// Two factors that render alike to two decimals are different campaigns:
// resuming one from the other's checkpoint must fail on the digest.
TEST(FleetCheckpoint, ResumeRejectsAFactorChangedBelowTheSecondDecimal) {
  auto specs = small_fleet();
  const std::string ck =
      ::testing::TempDir() + "/fleet-factor-test-ck.bin";
  std::filesystem::remove(ck);

  specs[1].sabotage = parse_sabotage("reduce:0.994");
  FleetOptions options;
  options.workers = 1;
  options.checkpoint_path = ck;
  options.stop_after = 1;
  (void)Fleet(options).run(specs);
  ASSERT_TRUE(std::filesystem::exists(ck));

  specs[1].sabotage = parse_sabotage("reduce:0.991");
  FleetOptions resume;
  resume.workers = 1;
  resume.resume_path = ck;
  try {
    (void)Fleet(resume).run(specs);
    ADD_FAILURE() << "resumed a reduce:0.994 checkpoint as reduce:0.991";
  } catch (const offramps::Error& e) {
    EXPECT_NE(std::string(e.what()).find("spec digest mismatch"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(ck);
}

}  // namespace
