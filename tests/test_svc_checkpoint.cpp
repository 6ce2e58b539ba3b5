// svc::Checkpoint: binary round trip, the bounded/versioned reader, the
// atomic save protocol, and the campaign digest that fences resumes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "core/capture.hpp"
#include "sim/error.hpp"
#include "svc/checkpoint.hpp"
#include "svc/fleet.hpp"

namespace {

using offramps::Error;
using offramps::core::Capture;
using offramps::core::Transaction;
using offramps::svc::campaign_digest;
using offramps::svc::Channel;
using offramps::svc::ChannelVerdict;
using offramps::svc::Checkpoint;
using offramps::svc::FleetOptions;
using offramps::svc::RefEntry;
using offramps::svc::RigOutcome;
using offramps::svc::RigSpec;
using offramps::svc::RigStatus;

Capture small_capture() {
  Capture cap;
  cap.label = "golden-0";
  cap.print_completed = true;
  for (std::uint32_t i = 0; i < 4; ++i) {
    Transaction t;
    t.index = i;
    t.counts = {static_cast<std::int32_t>(i), 0, 0,
                static_cast<std::int32_t>(2 * i)};
    t.time_ns = i * 100'000'000ull;
    cap.transactions.push_back(t);
  }
  cap.final_counts = {3, 0, 0, 6};
  return cap;
}

Checkpoint sample_checkpoint() {
  Checkpoint ck;
  ck.spec_digest = 0xDEADBEEFCAFEF00Dull;
  ck.total_rigs = 3;

  RefEntry ref;
  ref.golden = small_capture();
  ref.golden_power = {{0.0, 11.5}, {0.1, 12.25}, {0.2, 13.0}};
  ck.references.push_back(std::move(ref));

  RigOutcome out;
  out.spec.name = "rig-1";
  out.spec.seed = 1001;
  out.spec.cube_mm = 6.0;
  out.spec.height_mm = 1.5;
  out.spec.sabotage = offramps::svc::parse_sabotage("reduce:0.5");
  out.spec.chaos = offramps::host::parse_chaos("crash:1");
  out.status = RigStatus::kRecovered;
  out.attempts = 2;
  out.failure_cause = "chaos: injected rig crash";
  out.print_finished = false;
  out.safe_stopped = true;
  out.kill_reason = "fleet safe-stop: golden-compare alarm";
  out.sim_seconds = 12.5;
  out.final_counts = {10, 20, 30, 40};
  out.detector.alarmed = true;
  out.detector.alarmed_mid_print = true;
  out.detector.alarm_window = 17;
  out.detector.alarm_tick_ns = 1'700'000'000ull;
  out.detector.windows_processed = 42;
  out.detector.ring_high_water = 9;
  out.detector.channels = {
      {Channel::kGoldenCompare, true, true, 17, 40, 3},
      {Channel::kGoldenFree, true, false, 0, 42, 2},
      {Channel::kPower, true, false, 0, 12, 1},
      {Channel::kFinalCounts, true, true, 41, 1, 1},
      {Channel::kStaticOracle, false, false, 0, 0, 0},
  };
  ck.done.emplace_back(1, std::move(out));
  return ck;
}

TEST(Checkpoint, BinaryRoundTrip) {
  const Checkpoint ck = sample_checkpoint();
  const Checkpoint back = Checkpoint::from_binary(ck.to_binary());

  EXPECT_EQ(back.spec_digest, ck.spec_digest);
  EXPECT_EQ(back.total_rigs, 3u);
  ASSERT_EQ(back.references.size(), 1u);
  EXPECT_EQ(back.references[0].golden.size(), 4u);
  EXPECT_EQ(back.references[0].golden.label, "golden-0");
  ASSERT_EQ(back.references[0].golden_power.size(), 3u);
  EXPECT_DOUBLE_EQ(back.references[0].golden_power[1].value, 12.25);

  ASSERT_EQ(back.done.size(), 1u);
  EXPECT_EQ(back.done[0].first, 1u);
  const RigOutcome& out = back.done[0].second;
  EXPECT_EQ(out.spec.name, "rig-1");
  EXPECT_EQ(out.spec.sabotage.to_string(), "reduce:0.50");
  EXPECT_EQ(out.spec.chaos.to_string(), "crash:1");
  EXPECT_EQ(out.status, RigStatus::kRecovered);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.failure_cause, "chaos: injected rig crash");
  EXPECT_TRUE(out.safe_stopped);
  EXPECT_EQ(out.kill_reason, "fleet safe-stop: golden-compare alarm");
  EXPECT_DOUBLE_EQ(out.sim_seconds, 12.5);
  EXPECT_EQ(out.final_counts[3], 40);
  EXPECT_TRUE(out.detector.alarmed_mid_print);
  EXPECT_EQ(out.detector.windows_processed, 42u);
  // The verdict rows round-trip whole, in order: the report derives
  // every per-channel count it renders from them.
  const std::vector<ChannelVerdict>& rows = out.detector.channels;
  const std::vector<ChannelVerdict>& want =
      ck.done[0].second.detector.channels;
  ASSERT_EQ(rows.size(), want.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].channel, want[i].channel) << "row " << i;
    EXPECT_EQ(rows[i].armed, want[i].armed) << "row " << i;
    EXPECT_EQ(rows[i].tripped, want[i].tripped) << "row " << i;
    EXPECT_EQ(rows[i].trip_window, want[i].trip_window) << "row " << i;
    EXPECT_EQ(rows[i].windows_compared, want[i].windows_compared)
        << "row " << i;
    EXPECT_EQ(rows[i].mismatches, want[i].mismatches) << "row " << i;
  }
  EXPECT_EQ(out.detector.verdict(Channel::kGoldenFree)->mismatches, 2u);
  EXPECT_EQ(out.detector.verdict(Channel::kPower)->windows_compared, 12u);
  EXPECT_EQ(out.detector.verdict(Channel::kAcoustic), nullptr);

  // FNV-1a of the encoding, recorded before the format moved onto
  // core/bytes.hpp: a codec change that moves a byte fails here.
  const std::vector<std::uint8_t> bytes = ck.to_binary();
  offramps::core::Fnv1a fnv;
  fnv.bytes(bytes.data(), bytes.size());
  EXPECT_EQ(fnv.value(), 0xe2a1e661a4e3b658ull);
}

TEST(Checkpoint, RejectsBadMagicAndVersion) {
  std::vector<std::uint8_t> bytes = sample_checkpoint().to_binary();
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(Checkpoint::from_binary(bad_magic), Error);

  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[4] = 0xFE;  // version u16 LE low byte
  bad_version[5] = 0xFF;
  try {
    Checkpoint::from_binary(bad_version);
    FAIL() << "unknown version must be rejected";
  } catch (const Error& e) {
    // The error names both the file's version and the supported one, so
    // a mixed-version farm can diagnose itself.
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos);
    EXPECT_NE(what.find(std::to_string(Checkpoint::kVersion)),
              std::string::npos);
  }

  // A v2 checkpoint (which stored per-channel counts beside the verdict
  // rows) is a version error, not a misparse.
  std::vector<std::uint8_t> v2 = bytes;
  v2[4] = 2;
  v2[5] = 0;
  try {
    Checkpoint::from_binary(v2);
    FAIL() << "a v2 checkpoint must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsTruncationAtEveryByte) {
  const std::vector<std::uint8_t> bytes = sample_checkpoint().to_binary();
  // A checkpoint cut anywhere - including mid-record - must raise a
  // parse error, never decode garbage or crash.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    const std::vector<std::uint8_t> part(bytes.begin(),
                                         bytes.begin() + cut);
    EXPECT_THROW(Checkpoint::from_binary(part), Error) << "cut at " << cut;
  }
  EXPECT_NO_THROW(Checkpoint::from_binary(bytes));
}

TEST(Checkpoint, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = sample_checkpoint().to_binary();
  bytes.push_back(0x00);
  EXPECT_THROW(Checkpoint::from_binary(bytes), Error);
}

// A hostile golden trace (here a far-future power sample) would make
// every resumed rig that arms on it emit one window mean per empty
// second; the shared reference decoder rejects it.
TEST(Checkpoint, RejectsHostileGoldenSampleTimes) {
  Checkpoint ck = sample_checkpoint();
  ck.references[0].golden_power.push_back({1e12, 13.5});
  EXPECT_THROW(Checkpoint::from_binary(ck.to_binary()), Error);
}

TEST(Checkpoint, RejectsLyingCounts) {
  Checkpoint ck = sample_checkpoint();
  ck.total_rigs = 0;  // fewer rigs than completed records
  EXPECT_THROW(Checkpoint::from_binary(ck.to_binary()), Error);
}

TEST(Checkpoint, AtomicSaveAndLoad) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/ck-atomic-test.bin";
  const Checkpoint ck = sample_checkpoint();
  ck.save(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temp file must be renamed away";
  const Checkpoint back = Checkpoint::load(path);
  EXPECT_EQ(back.spec_digest, ck.spec_digest);
  ASSERT_EQ(back.done.size(), 1u);
  EXPECT_EQ(back.done[0].second.spec.name, "rig-1");
  std::filesystem::remove(path);
}

TEST(Checkpoint, LoadRejectsMissingFile) {
  EXPECT_THROW(Checkpoint::load("/nonexistent/nowhere/ck.bin"), Error);
}

TEST(CampaignDigest, SensitiveToSpecsAndOptions) {
  std::vector<RigSpec> specs(2);
  specs[0].name = "a";
  specs[1].name = "b";
  FleetOptions options;
  const std::uint64_t base = campaign_digest(specs, options);

  // Pure function.
  EXPECT_EQ(campaign_digest(specs, options), base);

  // Any behavior-relevant change moves the digest.
  std::vector<RigSpec> edited = specs;
  edited[1].seed += 1;
  EXPECT_NE(campaign_digest(edited, options), base);

  edited = specs;
  edited[0].sabotage = offramps::svc::parse_sabotage("reduce:0.5");
  EXPECT_NE(campaign_digest(edited, options), base);

  edited = specs;
  edited[0].chaos = offramps::host::parse_chaos("crash:1");
  EXPECT_NE(campaign_digest(edited, options), base);

  FleetOptions opt2 = options;
  opt2.channels.power = !opt2.channels.power;
  EXPECT_NE(campaign_digest(specs, opt2), base);

  // Every side-channel flag is behavior-relevant on its own.
  FleetOptions opt2a = options;
  opt2a.channels.acoustic = !opt2a.channels.acoustic;
  EXPECT_NE(campaign_digest(specs, opt2a), base);
  FleetOptions opt2v = options;
  opt2v.channels.vibration = !opt2v.channels.vibration;
  EXPECT_NE(campaign_digest(specs, opt2v), base);

  FleetOptions opt3 = options;
  opt3.supervisor.max_attempts += 1;
  EXPECT_NE(campaign_digest(specs, opt3), base);

  // Worker count and checkpoint paths are result-neutral: excluded.
  FleetOptions opt4 = options;
  opt4.workers = 8;
  opt4.checkpoint_path = "/tmp/somewhere.bin";
  opt4.stop_after = 1;
  EXPECT_EQ(campaign_digest(specs, opt4), base);

  // Pinned: a changed digest makes every saved checkpoint fail to
  // resume with "spec digest mismatch".
  EXPECT_EQ(campaign_digest(offramps::svc::Fleet::demo_specs(16, 4),
                            FleetOptions{}),
            0xa205caba2fb1afc4ull);
}

}  // namespace
