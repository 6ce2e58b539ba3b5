// The fusion layer of the detector: channel naming, the channel list's
// order (= fusion tie-break order), pick_first_trip's verdict rule, and
// end-to-end attribution through OnlineDetector - which modality raised
// the first alarm, which were armed but quiet, and what the degraded
// counts_only subset still covers.  These drive the detector directly
// with synthetic streams so every fusion corner is deterministic.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/capture.hpp"
#include "detect/side_channel.hpp"
#include "host/rig.hpp"
#include "svc/channel.hpp"
#include "svc/fleet.hpp"
#include "svc/online_detector.hpp"

namespace {

using offramps::core::Capture;
using offramps::core::Transaction;
using offramps::plant::SideTrace;
using offramps::svc::Channel;
using offramps::svc::channel_name;
using offramps::svc::ChannelSet;
using offramps::svc::ChannelTrip;
using offramps::svc::ChannelVerdict;
using offramps::svc::kChannelCount;
using offramps::svc::OnlineDetector;
using offramps::svc::OnlineDetectorOptions;
using offramps::svc::OnlineReport;
using offramps::svc::pick_first_trip;
using offramps::svc::SampleKind;

// ---- Channel naming (wire / JSON surface) -------------------------------

TEST(ChannelNames, RoundTripOverEveryChannel) {
  std::set<std::string> seen;
  for (std::uint8_t v = 0; v < kChannelCount; ++v) {
    const std::string name = channel_name(static_cast<Channel>(v));
    EXPECT_NE(name, "?") << "channel " << int(v) << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << "channel " << int(v) << " reuses the name '" << name << "'";
  }
}

// ---- The channel list = legacy fused priority, filtered by the gates ----

TEST(ChannelList, FusionOrderFilteredByTheGates) {
  for (unsigned bits = 0; bits < 16; ++bits) {
    const ChannelSet set{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                         (bits & 8) != 0};
    for (const bool golden_free : {false, true}) {
      for (const bool final_checks : {false, true}) {
        OnlineDetectorOptions options;
        options.channels = set;
        options.golden_free = golden_free;
        options.final_checks = final_checks;
        // The full order, each channel next to the gate that keeps it.
        const std::array<std::pair<Channel, bool>, 8> full{{
            {Channel::kGoldenCompare, set.steps},
            {Channel::kStreamLength, set.steps},
            {Channel::kGoldenFree, set.steps && golden_free},
            {Channel::kPower, set.power},
            {Channel::kAcoustic, set.acoustic},
            {Channel::kVibration, set.vibration},
            {Channel::kFinalCounts, set.steps && final_checks},
            {Channel::kStaticOracle, set.steps && final_checks},
        }};
        std::vector<std::string> want;
        for (const auto& [channel, kept] : full) {
          if (kept) want.emplace_back(channel_name(channel));
        }
        std::vector<std::string> got;
        for (const ChannelVerdict& v :
             OnlineDetector(options).report().channels) {
          got.emplace_back(channel_name(v.channel));
        }
        EXPECT_EQ(got, want) << "steps=" << set.steps
                             << " power=" << set.power
                             << " acoustic=" << set.acoustic
                             << " vibration=" << set.vibration
                             << " golden_free=" << golden_free
                             << " final_checks=" << final_checks;
      }
    }
  }
}

// ---- pick_first_trip (the fusion rule itself) ---------------------------

ChannelTrip trip(Channel c, std::uint32_t window) {
  ChannelTrip t;
  t.channel = c;
  t.window = window;
  return t;
}

TEST(PickFirstTrip, EmptyMeansNoAlarm) {
  const std::vector<ChannelTrip> none;
  EXPECT_EQ(pick_first_trip(none), nullptr);
}

TEST(PickFirstTrip, EarliestWindowWins) {
  const std::vector<ChannelTrip> trips{trip(Channel::kPower, 9),
                                       trip(Channel::kVibration, 3),
                                       trip(Channel::kAcoustic, 7)};
  const ChannelTrip* first = pick_first_trip(trips);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->channel, Channel::kVibration);
  EXPECT_EQ(first->window, 3u);
}

TEST(PickFirstTrip, SameWindowTieGoesToDeliveryOrder) {
  // Channels are delivered to in list order, so the first trip in the
  // vector is the channel earlier in the list: it must win the tie,
  // reproducing the legacy fused priority byte for byte.
  const std::vector<ChannelTrip> trips{trip(Channel::kGoldenCompare, 4),
                                       trip(Channel::kPower, 4)};
  const ChannelTrip* first = pick_first_trip(trips);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->channel, Channel::kGoldenCompare);

  const std::vector<ChannelTrip> reversed{trip(Channel::kPower, 4),
                                          trip(Channel::kGoldenCompare, 4)};
  EXPECT_EQ(pick_first_trip(reversed)->channel, Channel::kPower);
}

// ---- End-to-end attribution through OnlineDetector ----------------------

/// A flat synthetic side-channel recording: `seconds` of samples at the
/// probes' 50 ms cadence.
SideTrace flat_trace(double seconds, double level) {
  SideTrace trace;
  for (double t = 0.0; t < seconds; t += 0.05) {
    trace.push_back({t, level});
  }
  return trace;
}

OnlineDetectorOptions quiet_options() {
  OnlineDetectorOptions options;
  // Synthetic streams are not physical prints; keep the golden-free
  // machine model out of the way.
  options.golden_free = false;
  return options;
}

TEST(Fusion, AcousticAloneTripsAndIsAttributed) {
  const SideTrace golden = flat_trace(20.0, 40.0);
  OnlineDetector det(quiet_options(), {.golden_acoustic = &golden});

  // The observed recording tracks the signature for 8 s, then diverges
  // far past the 5-level tolerance for good.
  for (const auto& s : golden) {
    det.submit_sample(SampleKind::kAcoustic, s.t_s,
                      s.t_s < 8.0 ? s.value : s.value + 20.0);
  }

  const OnlineReport report = det.report();
  EXPECT_TRUE(report.alarmed);
  EXPECT_TRUE(report.alarmed_mid_print);
  EXPECT_EQ(report.first_channel, Channel::kAcoustic);

  const ChannelVerdict* acoustic = report.verdict(Channel::kAcoustic);
  ASSERT_NE(acoustic, nullptr);
  EXPECT_TRUE(acoustic->armed);
  EXPECT_TRUE(acoustic->tripped);
  EXPECT_GT(acoustic->mismatches, 0u);
  for (const auto& v : report.channels) {
    if (v.channel != Channel::kAcoustic) {
      EXPECT_FALSE(v.tripped) << channel_name(v.channel)
                              << " must stay quiet on an acoustic-only fault";
    }
  }
}

TEST(Fusion, VibrationAloneTripsAndIsAttributed) {
  const SideTrace golden = flat_trace(20.0, 5.0);
  OnlineDetector det(quiet_options(), {.golden_vibration = &golden});

  for (const auto& s : golden) {
    det.submit_sample(SampleKind::kVibration, s.t_s,
                      s.t_s < 8.0 ? s.value : s.value + 30.0);
  }

  const OnlineReport report = det.report();
  EXPECT_TRUE(report.alarmed);
  EXPECT_EQ(report.first_channel, Channel::kVibration);
  const ChannelVerdict* vibration = report.verdict(Channel::kVibration);
  ASSERT_NE(vibration, nullptr);
  EXPECT_TRUE(vibration->tripped);
  EXPECT_EQ(report.verdict(Channel::kAcoustic)->tripped, false);
}

// svc::Reference takes each golden trace's window means once for all its
// sessions; a side channel armed from them judges as one that takes its
// own, and means taken at another window are not used.
TEST(Fusion, SideChannelArmsFromMeansTakenOncePerReference) {
  SideTrace golden;
  for (double t = 0.0; t < 20.0; t += 0.05) {
    golden.push_back({t, 40.0 + 10.0 * static_cast<double>(
                                    static_cast<int>(t) % 3)});
  }
  const OnlineDetectorOptions options = quiet_options();
  const double window_s = options.acoustic.window_s;
  const offramps::svc::WindowMeans taken{
      window_s, offramps::detect::window_means(golden, window_s)};
  const offramps::svc::WindowMeans elsewhere{
      2.0 * window_s, offramps::detect::window_means(golden, 2.0 * window_s)};
  const auto judge = [&](const offramps::svc::ChannelRefs& refs) {
    OnlineDetector det(options, refs);
    for (const auto& s : golden) {
      det.submit_sample(SampleKind::kAcoustic, s.t_s,
                        s.t_s < 8.0 ? s.value : s.value + 20.0);
    }
    return det.report().to_string();
  };
  const std::string own = judge({.golden_acoustic = &golden});
  EXPECT_NE(own.find("acoustic"), std::string::npos);
  EXPECT_EQ(judge({.acoustic_means = &taken}), own);
  EXPECT_EQ(judge({.golden_acoustic = &golden, .acoustic_means = &elsewhere}),
            own);
  EXPECT_NE(judge({.acoustic_means = &elsewhere}), own);
}

TEST(Fusion, UnarmedSideChannelsReportButNeverJudge) {
  // All channels enabled, but no golden traces provided: the side
  // channels appear in the attribution with armed=false and a stream of
  // their samples never produces a verdict.
  OnlineDetector det(quiet_options());
  for (double t = 0.0; t < 10.0; t += 0.05) {
    det.submit_sample(SampleKind::kAcoustic, t, 99.0);
    det.submit_sample(SampleKind::kVibration, t, 99.0);
    det.submit_sample(SampleKind::kPower, t, 99.0);
  }
  const OnlineReport report = det.report();
  EXPECT_FALSE(report.alarmed);
  for (const Channel c :
       {Channel::kPower, Channel::kAcoustic, Channel::kVibration}) {
    const ChannelVerdict* v = report.verdict(c);
    ASSERT_NE(v, nullptr) << channel_name(c);
    EXPECT_FALSE(v->armed) << channel_name(c);
    EXPECT_FALSE(v->tripped) << channel_name(c);
    EXPECT_EQ(v->windows_compared, 0u) << channel_name(c);
  }
}

TEST(Fusion, DisableFlagsDropChannelsEntirely) {
  OnlineDetectorOptions options = quiet_options();
  options.channels = ChannelSet{true, true, false, false};
  const SideTrace golden = flat_trace(20.0, 40.0);
  // Reference offered, channel off.
  OnlineDetector det(options, {.golden_acoustic = &golden});

  // Samples for a disabled channel are dropped on the floor.
  for (const auto& s : golden) {
    det.submit_sample(SampleKind::kAcoustic, s.t_s, s.value + 20.0);
  }
  const OnlineReport report = det.report();
  EXPECT_FALSE(report.alarmed);
  EXPECT_EQ(report.verdict(Channel::kAcoustic), nullptr)
      << "a disabled channel must not even appear in the attribution";
  EXPECT_EQ(report.verdict(Channel::kVibration), nullptr);
  EXPECT_NE(report.verdict(Channel::kPower), nullptr);
  EXPECT_NE(report.verdict(Channel::kGoldenCompare), nullptr);
}

TEST(Fusion, CountsOnlySubsetStillCatchesStepSabotage) {
  // The Supervisor's degraded ladder: side-channel probes gone, step
  // counting alone.  The subset must drop every probe-backed channel yet
  // keep the paper's core detection working.
  OnlineDetectorOptions options = quiet_options();
  options.channels = ChannelSet{}.counts_only();
  options.consecutive_to_alarm = 1;

  Capture golden;
  golden.label = "golden";
  golden.print_completed = true;
  for (std::uint32_t i = 0; i < 10; ++i) {
    Transaction txn;
    txn.index = i;
    const auto base = static_cast<std::int32_t>(1000 + 100 * i);
    txn.counts = {base, base + 1, base + 2, base + 3};
    txn.time_ns = 100'000'000ull * (i + 1);
    golden.transactions.push_back(txn);
  }

  OnlineDetector det(options, {.golden = &golden});
  for (const ChannelVerdict& v : det.report().channels) {
    EXPECT_NE(v.channel, Channel::kPower);
    EXPECT_NE(v.channel, Channel::kAcoustic);
    EXPECT_NE(v.channel, Channel::kVibration);
  }

  Transaction bad = golden.transactions[0];
  bad.counts[0] *= 2;
  det.submit(bad);
  det.drain();
  EXPECT_TRUE(det.alarmed());
  EXPECT_EQ(det.report().first_channel, Channel::kGoldenCompare);
}

TEST(Fusion, EarliestWindowWinsAcrossModalities) {
  // Both side channels diverge, but vibration diverges first: the fused
  // verdict must attribute the alarm to the earlier stream position even
  // though acoustic is earlier in the channel list (and would win a
  // same-window tie).  A clean transaction stream rides along so trips
  // land on real capture windows (side-channel trips are attributed to
  // the latest drained transaction window).
  const SideTrace acoustic_golden = flat_trace(30.0, 40.0);
  const SideTrace vibration_golden = flat_trace(30.0, 5.0);
  Capture golden;
  golden.label = "golden";
  for (std::uint32_t i = 0; i < 300; ++i) {
    Transaction txn;
    txn.index = i;
    const auto base = static_cast<std::int32_t>(1000 + 10 * i);
    txn.counts = {base, base, base, base};
    txn.time_ns = 100'000'000ull * (i + 1);
    golden.transactions.push_back(txn);
  }

  OnlineDetector det(quiet_options(), {.golden = &golden,
                                       .golden_acoustic = &acoustic_golden,
                                       .golden_vibration = &vibration_golden});

  std::size_t next_txn = 0;
  for (std::size_t i = 0; i < acoustic_golden.size(); ++i) {
    const double t = acoustic_golden[i].t_s;
    while (next_txn < golden.transactions.size() &&
           static_cast<double>(golden.transactions[next_txn].time_ns) <=
               t * 1e9) {
      det.submit(golden.transactions[next_txn]);
      det.drain();
      ++next_txn;
    }
    // Vibration goes bad at 8 s, acoustic at 16 s; deliver acoustic
    // first each tick so delivery order cannot be what decides.
    det.submit_sample(SampleKind::kAcoustic, t, t < 16.0 ? 40.0 : 60.0);
    det.submit_sample(SampleKind::kVibration, t, t < 8.0 ? 5.0 : 35.0);
  }

  const OnlineReport report = det.report();
  EXPECT_TRUE(report.alarmed);
  EXPECT_EQ(report.first_channel, Channel::kVibration);
  const ChannelVerdict* vibration = report.verdict(Channel::kVibration);
  const ChannelVerdict* acoustic = report.verdict(Channel::kAcoustic);
  ASSERT_NE(vibration, nullptr);
  ASSERT_NE(acoustic, nullptr);
  EXPECT_TRUE(vibration->tripped);
  ASSERT_TRUE(acoustic->tripped);
  EXPECT_LT(vibration->trip_window, acoustic->trip_window);
  EXPECT_EQ(report.alarm_window, vibration->trip_window);
}

// ---- attach_probes (the one probe-wiring point of the fleet) ------------

TEST(AttachProbes, NoiseSeedsAreDerivedPerRig) {
  // Regression pin for the shared-noise bug: every probe attachment
  // (reference phase, live rigs, daemon) goes through attach_probes,
  // which must derive the noise seed from the rig seed - the kinds'
  // noise tags are channel tags, never seeds to run with.
  using offramps::plant::probe_noise_seed;
  using offramps::plant::probe_noise_tag;
  offramps::host::RigOptions a, b;
  offramps::svc::attach_probes(a, ChannelSet{}, 1000);
  offramps::svc::attach_probes(b, ChannelSet{}, 1001);
  for (const SampleKind kind : offramps::plant::kProbeKinds) {
    ASSERT_TRUE(a.probes[kind].has_value());
    EXPECT_EQ(*a.probes[kind], probe_noise_seed(1000, probe_noise_tag(kind)));
    // Adjacent rig seeds must not share any probe's noise stream.
    EXPECT_NE(a.probes[kind], b.probes[kind]);
  }
}

TEST(AttachProbes, HonorsTheChannelSet) {
  offramps::host::RigOptions ro;
  offramps::svc::attach_probes(ro, ChannelSet{}.counts_only(), 7);
  EXPECT_FALSE(ro.probes[SampleKind::kPower].has_value());
  EXPECT_FALSE(ro.probes[SampleKind::kAcoustic].has_value());
  EXPECT_FALSE(ro.probes[SampleKind::kVibration].has_value());

  offramps::svc::attach_probes(ro, ChannelSet{true, false, true, false}, 7);
  EXPECT_FALSE(ro.probes[SampleKind::kPower].has_value());
  EXPECT_TRUE(ro.probes[SampleKind::kAcoustic].has_value());
  EXPECT_FALSE(ro.probes[SampleKind::kVibration].has_value());
}

}  // namespace
