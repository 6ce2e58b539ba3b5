// svc::replay_corpus + the reference cache inside a real campaign: a
// live fleet recorded with --captures semantics must replay to a
// byte-identical report at any worker count and without the simulator;
// a warm cache must reproduce the cold run's report byte for byte; and
// the session-layer chaos drills must land on the supervisor's ladder.
//
// This is the integration tier above test_svc_session (synthetic
// streams) and test_svc_ref_cache (codec units): everything here runs
// through Fleet::run once and exercises the recorded artifacts.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/session_wire.hpp"
#include "host/chaos.hpp"
#include "sim/error.hpp"
#include "svc/daemon.hpp"
#include "svc/fleet.hpp"
#include "svc/ref_cache.hpp"

namespace {

using offramps::Error;
using offramps::host::parse_chaos;
using offramps::svc::Fleet;
using offramps::svc::FleetOptions;
using offramps::svc::FleetReport;
using offramps::svc::parse_sabotage;
using offramps::svc::ReplayOptions;
using offramps::svc::RigSpec;
using offramps::svc::RigStatus;
using offramps::svc::ServiceOptions;

std::filesystem::path fresh_dir(const std::string& name) {
  // ctest runs each TEST of this binary as its own process, in
  // parallel; suffix the pid so two shards never tear down each other's
  // recording mid-replay.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// FNV-1a over a file's bytes.
std::uint64_t fnv1a_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 1469598103934665603ull;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h ^= static_cast<std::uint8_t>(*it);
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a of every artifact recording() writes, recorded before the
/// side-channel pipeline was merged into one probe/channel family (rp-3's
/// before the live attempt and the replay shared one detector feed).  The
/// report renders only counts, so these are what catch a probe sample
/// that moves by one bit, a feed loop that reorders samples, a wedged
/// consumer whose slots are recorded in another order, or a reference
/// codec that changes a byte.
constexpr std::uint64_t kRefEntryFnv = 0xf9eda85340879f4bull;
const std::map<std::string, std::uint64_t>& capture_fnvs() {
  static const std::map<std::string, std::uint64_t> fnvs = {
      {"golden-0.bin", 0xd98dc0655c050323ull},
      {"rp-0.bin", 0xec6b7ac9e1251271ull},
      {"rp-0.ofs", 0xb4309326a3768a83ull},
      {"rp-1.bin", 0xbede0fe3ea602f10ull},
      {"rp-1.ofs", 0x464a758b8f5e0b74ull},
      {"rp-2.bin", 0x79ab72122e63f185ull},
      {"rp-2.ofs", 0xf5974c445778438cull},
      {"rp-3.bin", 0x45dd396b4d237f3eull},
      {"rp-3.ofs", 0x967fe5ffb23efbe3ull},
  };
  return fnvs;
}

/// Four small rigs sharing one object, one of them sabotaged and one
/// with a wedged consumer - enough to cover both verdicts and the ring's
/// backpressure path in replay while keeping the one live simulation
/// this suite pays for quick.
std::vector<RigSpec> recorded_fleet() {
  std::vector<RigSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "rp-" + std::to_string(i);
    specs[i].seed = 700 + i;
    specs[i].cube_mm = 6.0;
    specs[i].height_mm = 1.5;
  }
  specs[1].sabotage = parse_sabotage("reduce:0.5");
  specs[3].chaos = parse_chaos("ringwedge");
  return specs;
}

FleetOptions recorded_options() {
  FleetOptions options;
  options.workers = 2;
  return options;
}

ServiceOptions service_options(const std::string& cache_dir = "") {
  ServiceOptions service = recorded_options();
  service.workers = 1;
  service.cache_dir = cache_dir;
  return service;
}

/// The one live simulation: recorded once, shared by every test below.
struct Recording {
  std::string captures_dir;
  std::string cache_dir;
  std::string live_json;
};

const Recording& recording() {
  static const Recording rec = [] {
    Recording r;
    r.captures_dir = fresh_dir("replay_caps").string();
    r.cache_dir = fresh_dir("replay_cache").string();
    FleetOptions options = recorded_options();
    options.save_captures_dir = r.captures_dir;
    options.cache_dir = r.cache_dir;
    Fleet fleet(options);
    r.live_json = fleet.run(recorded_fleet()).to_json();
    return r;
  }();
  return rec;
}

TEST(RefCacheCampaign, ColdRunPopulatesOneEntryPerObject) {
  const Recording& rec = recording();
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(rec.cache_dir)) {
    if (e.path().extension() != ".ref") continue;
    ++entries;
    EXPECT_EQ(fnv1a_file(e.path()), kRefEntryFnv);
  }
  // All four rigs print the same object: one digest, one entry.
  EXPECT_EQ(entries, 1u);
}

TEST(RefCacheCampaign, WarmRunIsByteIdentical) {
  const Recording& rec = recording();
  FleetOptions options = recorded_options();
  options.cache_dir = rec.cache_dir;
  Fleet fleet(options);
  EXPECT_EQ(fleet.run(recorded_fleet()).to_json(), rec.live_json)
      << "a cache hit must not change a byte of the report";
}

TEST(RefCacheCampaign, TornEntryHealsByRecompute) {
  const Recording& rec = recording();
  // Tear the entry (half of it, as a crash mid-write would leave it),
  // run warm: the campaign must recompute, reproduce the report, and
  // rewrite the entry.
  offramps::svc::RefCache probe({.dir = rec.cache_dir, .max_bytes = 0});
  const std::uint64_t key = offramps::svc::reference_digest(
      6.0, 1.5, recorded_options().profile, recorded_options().reference_seed,
      recorded_options().channels);
  const std::string path = probe.path_for(key);
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  FleetOptions options = recorded_options();
  options.cache_dir = rec.cache_dir;
  Fleet fleet(options);
  EXPECT_EQ(fleet.run(recorded_fleet()).to_json(), rec.live_json);
  EXPECT_TRUE(std::filesystem::exists(path)) << "recompute must re-cache";
}

TEST(Replay, ReproducesLiveReportByteForByte) {
  const Recording& rec = recording();
  ReplayOptions options;
  options.service = service_options(rec.cache_dir);
  const FleetReport report = replay_corpus(rec.captures_dir, options);
  EXPECT_EQ(report.to_json(), rec.live_json)
      << "replay must reproduce every verdict without simulating";
  EXPECT_EQ(report.alarmed(), 1u);
  EXPECT_EQ(report.count(RigStatus::kOk), 4u);
  // The wedged consumer leaned on the ring's lossless backpressure, and
  // the replay stalled exactly where the live rig did.
  EXPECT_GT(report.rigs[3].detector.backpressure_stalls, 0u);

  // The recorded sessions and captures themselves, byte for byte.
  std::map<std::string, std::uint64_t> fnvs;
  for (const auto& e :
       std::filesystem::directory_iterator(rec.captures_dir)) {
    fnvs[e.path().filename().string()] = fnv1a_file(e.path());
  }
  EXPECT_EQ(fnvs, capture_fnvs());
}

TEST(Replay, ByteIdenticalAcrossWorkerCounts) {
  const Recording& rec = recording();
  ReplayOptions options;
  options.service = service_options(rec.cache_dir);
  options.service.workers = 8;
  EXPECT_EQ(replay_corpus(rec.captures_dir, options).to_json(), rec.live_json);
}

TEST(Replay, WorksWithoutCacheBySimulatingReference) {
  const Recording& rec = recording();
  ReplayOptions options;
  options.service = service_options();  // no cache: simulate the golden
  EXPECT_EQ(replay_corpus(rec.captures_dir, options).to_json(), rec.live_json);
}

TEST(Replay, ChaosDrillsLandOnTheLadder) {
  const Recording& rec = recording();
  ReplayOptions options;
  options.service = service_options(rec.cache_dir);
  // Corpus files sort by name: rp-0, rp-1, rp-2, rp-3.  Drop a
  // transaction from rp-0's stream and cut rp-2's short.
  auto corrupt = parse_chaos("framecorrupt");
  corrupt.after = 3;
  options.chaos.emplace_back(0, corrupt);
  options.chaos.emplace_back(2, parse_chaos("disconnect"));

  const FleetReport report = replay_corpus(rec.captures_dir, options);
  ASSERT_EQ(report.rigs.size(), 4u);
  EXPECT_EQ(report.rigs[0].status, RigStatus::kRecovered);
  EXPECT_NE(report.rigs[0].failure_cause.find("corrupt transaction"),
            std::string::npos)
      << report.rigs[0].failure_cause;
  EXPECT_EQ(report.rigs[1].status, RigStatus::kOk);
  EXPECT_TRUE(report.rigs[1].detector.alarmed) << "sabotage verdict survives";
  EXPECT_EQ(report.rigs[2].status, RigStatus::kLost);
  EXPECT_EQ(report.campaign(), "lost");
}

// --replay performs only the session drills, at an index inside the
// corpus.  Any other order fails before a session is judged (judged,
// these two files would just come back lost).
TEST(Replay, RejectsChaosItDoesNotPerform) {
  const auto dir = fresh_dir("replay_chaos_reject");
  for (const char* name : {"a.ofs", "b.ofs"}) {
    std::ofstream(dir / name) << "not a session";
  }
  const std::vector<std::pair<std::size_t, std::string>> orders{
      {0, "crash"}, {0, "cachetear"}, {1, "stall:2"}, {2, "framecorrupt"}};
  for (const auto& [index, drill] : orders) {
    ReplayOptions options;
    options.service = service_options();
    options.chaos.emplace_back(index, parse_chaos(drill));
    EXPECT_THROW(replay_corpus(dir.string(), options), Error) << drill;
  }
  std::filesystem::remove_all(dir);
}

TEST(Replay, EmptyOrMissingCorpusThrows) {
  ReplayOptions options;
  options.service = service_options();
  const auto empty = fresh_dir("replay_empty");
  EXPECT_THROW(replay_corpus(empty.string(), options), Error);
  EXPECT_THROW(replay_corpus((empty / "nope").string(), options), Error);
}

}  // namespace
