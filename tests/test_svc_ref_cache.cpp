// svc::RefCache: digest stability/sensitivity, the bounded on-disk
// record codec, the paranoid rejection paths (truncated, corrupt,
// version-skewed, mis-keyed, trailing-garbage entries are deleted and
// treated as misses - never crashes), the LRU byte budget, and an entry
// torn by a crash mid-write.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/bytes.hpp"
#include "core/capture.hpp"
#include "host/slicer.hpp"
#include "sim/error.hpp"
#include "svc/ref_cache.hpp"

namespace {

using offramps::Error;
using offramps::core::Capture;
using offramps::core::Transaction;
using offramps::host::SliceProfile;
using offramps::svc::ChannelSet;
using offramps::svc::RefCache;
using offramps::svc::RefCacheOptions;
using offramps::svc::RefEntry;
using offramps::svc::reference_digest;

RefEntry sample_entry(std::size_t txns, std::size_t power_samples,
                      std::size_t side_samples = 0) {
  RefEntry entry;
  entry.golden.label = "cache-test";
  entry.golden.print_completed = true;
  for (std::size_t i = 0; i < txns; ++i) {
    Transaction t;
    t.index = static_cast<std::uint32_t>(i);
    t.counts = {static_cast<std::int32_t>(i), static_cast<std::int32_t>(2 * i),
                0, static_cast<std::int32_t>(3 * i)};
    t.time_ns = 500'000ull * (i + 1);
    entry.golden.transactions.push_back(t);
  }
  entry.golden.final_counts = {100, 200, 0, 300};
  for (std::size_t i = 0; i < power_samples; ++i) {
    entry.golden_power.push_back(
        {.t_s = 0.25 * static_cast<double>(i), .value = 10.0 + i});
  }
  for (std::size_t i = 0; i < side_samples; ++i) {
    entry.golden_acoustic.push_back(
        {.t_s = 0.05 * static_cast<double>(i), .value = 35.0 + i});
  }
  // Deliberately a different length than acoustic so a codec that swaps
  // the two sections fails the round-trip.
  for (std::size_t i = 0; i + 1 < side_samples; ++i) {
    entry.golden_vibration.push_back(
        {.t_s = 0.05 * static_cast<double>(i), .value = 3.0 + 0.5 * i});
  }
  return entry;
}

/// Digest-key channel subsets, named for the tests below.
ChannelSet all_channels() { return ChannelSet{}; }
ChannelSet power_only() { return ChannelSet{true, true, false, false}; }

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RefDigest, StableAndSensitiveToEveryInput) {
  const SliceProfile profile;
  const std::uint64_t base =
      reference_digest(8.0, 3.0, profile, 42, all_channels());
  EXPECT_EQ(reference_digest(8.0, 3.0, profile, 42, all_channels()), base)
      << "same inputs must hash identically across calls";

  std::set<std::uint64_t> digests{base};
  digests.insert(reference_digest(8.5, 3.0, profile, 42, all_channels()));
  digests.insert(reference_digest(8.0, 2.0, profile, 42, all_channels()));
  digests.insert(reference_digest(8.0, 3.0, profile, 43, all_channels()));
  // A golden computed without a probe must never serve a campaign that
  // expects that probe's trace: each side-channel flag perturbs the key.
  digests.insert(reference_digest(8.0, 3.0, profile, 42, power_only()));
  digests.insert(reference_digest(8.0, 3.0, profile, 42,
                                  ChannelSet{true, false, false, false}));
  digests.insert(reference_digest(8.0, 3.0, profile, 42,
                                  ChannelSet{true, true, true, false}));
  digests.insert(reference_digest(8.0, 3.0, profile, 42,
                                  ChannelSet{true, true, false, true}));
  SliceProfile fat = profile;
  fat.layer_height_mm *= 2.0;
  digests.insert(reference_digest(8.0, 3.0, fat, 42, all_channels()));
  EXPECT_EQ(digests.size(), 9u) << "every input must perturb the digest";

  // `steps` gates no probe and no golden section, so it deliberately
  // stays out of the key: the same entry serves either way.
  ChannelSet no_steps = all_channels();
  no_steps.steps = false;
  EXPECT_EQ(reference_digest(8.0, 3.0, profile, 42, no_steps), base);

  // Pinned: the digest names every .ref file, so a changed digest
  // orphans every warm cache on disk.
  EXPECT_EQ(reference_digest(8.0, 3.0, SliceProfile{}, 42, ChannelSet{}),
            0x220856772eb482deull);
}

TEST(RefCacheCodec, RoundTripPreservesEverything) {
  const RefEntry entry = sample_entry(12, 5, 9);
  const std::uint64_t key =
      reference_digest(8.0, 3.0, SliceProfile{}, 42, all_channels());
  const std::vector<std::uint8_t> blob = RefCache::encode_entry(key, entry);
  // FNV-1a of the record, recorded before the format moved onto
  // core/bytes.hpp: a codec change that moves a byte fails here.
  offramps::core::Fnv1a fnv;
  fnv.bytes(blob.data(), blob.size());
  EXPECT_EQ(fnv.value(), 0x31807c494ea6b400ull);

  const RefEntry back = RefCache::decode_entry(blob.data(), blob.size(), key);
  EXPECT_EQ(back.golden.to_binary(), entry.golden.to_binary());
  ASSERT_EQ(back.golden_power.size(), entry.golden_power.size());
  for (std::size_t i = 0; i < back.golden_power.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.golden_power[i].t_s, entry.golden_power[i].t_s);
    EXPECT_DOUBLE_EQ(back.golden_power[i].value, entry.golden_power[i].value);
  }
  ASSERT_EQ(back.golden_acoustic.size(), entry.golden_acoustic.size());
  for (std::size_t i = 0; i < back.golden_acoustic.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.golden_acoustic[i].t_s, entry.golden_acoustic[i].t_s);
    EXPECT_DOUBLE_EQ(back.golden_acoustic[i].value,
                     entry.golden_acoustic[i].value);
  }
  ASSERT_EQ(back.golden_vibration.size(), entry.golden_vibration.size());
  for (std::size_t i = 0; i < back.golden_vibration.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.golden_vibration[i].t_s,
                     entry.golden_vibration[i].t_s);
    EXPECT_DOUBLE_EQ(back.golden_vibration[i].value,
                     entry.golden_vibration[i].value);
  }
}

TEST(RefCacheCodec, EmptyTracesRoundTrip) {
  const RefEntry entry = sample_entry(3, 0, 0);
  const std::vector<std::uint8_t> blob = RefCache::encode_entry(7, entry);
  const RefEntry back = RefCache::decode_entry(blob.data(), blob.size(), 7);
  EXPECT_TRUE(back.golden_power.empty());
  EXPECT_TRUE(back.golden_acoustic.empty());
  EXPECT_TRUE(back.golden_vibration.empty());
  EXPECT_EQ(back.golden.size(), 3u);
}

TEST(RefCacheCodec, RejectsEveryMalformation) {
  const RefEntry entry = sample_entry(8, 3, 5);
  const std::uint64_t key = 0xDEADBEEFCAFEF00Dull;
  const std::vector<std::uint8_t> blob = RefCache::encode_entry(key, entry);

  // Mis-keyed: the record is intact but belongs to another digest.
  EXPECT_THROW(RefCache::decode_entry(blob.data(), blob.size(), key + 1),
               Error);

  // Truncation at every prefix length must throw, never read past the
  // end or accept a partial record.
  for (std::size_t n = 0; n < blob.size(); n += 7) {
    EXPECT_THROW(RefCache::decode_entry(blob.data(), n, key), Error)
        << "accepted a " << n << "-byte prefix of a " << blob.size()
        << "-byte record";
  }

  // Trailing garbage.
  std::vector<std::uint8_t> padded = blob;
  padded.push_back(0x00);
  EXPECT_THROW(RefCache::decode_entry(padded.data(), padded.size(), key),
               Error);

  // Bad magic and version skew.
  std::vector<std::uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(RefCache::decode_entry(bad_magic.data(), bad_magic.size(), key),
               Error);
  std::vector<std::uint8_t> skewed = blob;
  skewed[4] ^= 0x01;  // u16 version
  EXPECT_THROW(RefCache::decode_entry(skewed.data(), skewed.size(), key),
               Error);

  // A corrupted capture-blob length prefix claiming gigabytes must be
  // rejected by the bounded reader, not allocated.
  std::vector<std::uint8_t> lying = blob;
  lying[16] = 0xFF;
  lying[17] = 0xFF;
  lying[18] = 0xFF;
  lying[19] = 0x7F;
  EXPECT_THROW(RefCache::decode_entry(lying.data(), lying.size(), key), Error);

  // Golden sample times that would make detect::window_means emit one
  // mean per empty window: non-finite, negative, a decreasing pair, and
  // far past any print.
  const std::vector<offramps::plant::SideTrace> hostile_traces = {
      {{0.0, 40.0}, {std::numeric_limits<double>::quiet_NaN(), 40.0}},
      {{-1.0, 40.0}},
      {{0.5, 40.0}, {0.25, 40.0}},
      {{0.0, 40.0}, {1e12, 40.0}},
  };
  for (const offramps::plant::SideTrace& trace : hostile_traces) {
    RefEntry hostile = entry;
    hostile.golden_acoustic = trace;
    const std::vector<std::uint8_t> bytes =
        RefCache::encode_entry(key, hostile);
    EXPECT_THROW(RefCache::decode_entry(bytes.data(), bytes.size(), key),
                 Error)
        << "accepted a sample at t=" << trace.back().t_s;
  }
}

TEST(RefCache, MissThenPutThenHit) {
  const auto dir = fresh_dir("refcache_basic");
  RefCache cache({.dir = dir.string(), .max_bytes = 0});
  const std::uint64_t key =
      reference_digest(6.0, 1.5, SliceProfile{}, 42, all_channels());

  EXPECT_FALSE(cache.get(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  const RefEntry entry = sample_entry(10, 4, 6);
  cache.put(key, entry);
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(key)));

  const auto hit = cache.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->golden.to_binary(), entry.golden.to_binary());
  EXPECT_EQ(hit->golden_power.size(), 4u);
  EXPECT_EQ(hit->golden_acoustic.size(), 6u);
  EXPECT_EQ(hit->golden_vibration.size(), 5u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().rejected, 0u);

  // A second cache over the same directory sees the entry (the store is
  // the disk, not the process).
  RefCache other({.dir = dir.string(), .max_bytes = 0});
  EXPECT_TRUE(other.get(key).has_value());
  std::filesystem::remove_all(dir);
}

TEST(RefCache, RejectedEntryIsDeletedAndRecomputable) {
  const auto dir = fresh_dir("refcache_reject");
  RefCache cache({.dir = dir.string(), .max_bytes = 0});
  const std::uint64_t key = 99;
  cache.put(key, sample_entry(6, 2));

  // Corrupt the record in place, outside the temp+rename discipline.
  {
    std::fstream f(cache.path_for(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(12);
    f.put('\xEE');
  }
  EXPECT_FALSE(cache.get(key).has_value())
      << "a corrupt entry must read as a miss";
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_FALSE(std::filesystem::exists(cache.path_for(key)))
      << "the poisoned entry must be deleted";

  // The caller recomputes and the cache heals.
  cache.put(key, sample_entry(6, 2));
  EXPECT_TRUE(cache.get(key).has_value());
  std::filesystem::remove_all(dir);
}

TEST(RefCache, PreMultiModalEntryMissesAndIsRecomputed) {
  // An entry written by a build that predates the side-channel traces
  // carries the old format version.  It must read as a miss (deleted,
  // recomputed) - never be served to a campaign expecting acoustic and
  // vibration goldens it cannot hold.
  const auto dir = fresh_dir("refcache_version");
  RefCache cache({.dir = dir.string(), .max_bytes = 0});
  const std::uint64_t key =
      reference_digest(6.0, 1.5, SliceProfile{}, 42, all_channels());
  cache.put(key, sample_entry(6, 2, 3));

  // Rewind the on-disk format version word (u16 at offset 4) to v1.
  {
    std::fstream f(cache.path_for(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(4);
    f.put('\x01');
    f.put('\x00');
  }
  EXPECT_FALSE(cache.get(key).has_value())
      << "a version-skewed entry must read as a miss";
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_FALSE(std::filesystem::exists(cache.path_for(key)))
      << "the stale entry must be deleted so the campaign recomputes";

  cache.put(key, sample_entry(6, 2, 3));
  const auto healed = cache.get(key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->golden_acoustic.size(), 3u);
  EXPECT_EQ(healed->golden_vibration.size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(RefCache, CacheTearDrillRejectsHalfWrittenEntry) {
  const auto dir = fresh_dir("refcache_tear");
  RefCache cache({.dir = dir.string(), .max_bytes = 0});
  const std::uint64_t key = 1234;
  cache.put(key, sample_entry(20, 8));
  const std::string path = cache.path_for(key);
  const auto full = std::filesystem::file_size(path);

  // A crash mid-write outside the temp+rename discipline leaves half an
  // entry behind.
  std::filesystem::resize_file(path, full / 2);
  EXPECT_FALSE(cache.get(key).has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(RefCache, LruEvictsOldestButNeverTheEntryJustWritten) {
  const auto dir = fresh_dir("refcache_lru");
  // Budget sized from a real record: room for two entries, not three.
  const std::vector<std::uint8_t> one =
      RefCache::encode_entry(1, sample_entry(16, 4));
  RefCache cache({.dir = dir.string(),
                  .max_bytes = static_cast<std::uint64_t>(one.size()) * 2});

  const auto put_spaced = [&](std::uint64_t key) {
    // mtime is the LRU clock; space the writes so ordering is unambiguous
    // even on coarse-grained filesystems.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.put(key, sample_entry(16, 4));
  };
  put_spaced(1);
  put_spaced(2);
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(1)));
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(2)));
  EXPECT_EQ(cache.stats().evictions, 0u);

  put_spaced(3);
  EXPECT_FALSE(std::filesystem::exists(cache.path_for(1)))
      << "oldest entry must be evicted";
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(3)))
      << "the entry just written must never be evicted";
  EXPECT_EQ(cache.stats().evictions, 1u);

  // get() refreshes recency: touch 2, insert 4, and 2 survives.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(cache.get(2).has_value());
  put_spaced(4);
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(2)))
      << "a freshly-read entry is recent, not stale";
  EXPECT_FALSE(std::filesystem::exists(cache.path_for(3)));
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(4)));
  std::filesystem::remove_all(dir);
}

TEST(RefCache, UnwritableDirectoryThrows) {
  EXPECT_THROW(
      RefCache({.dir = "/proc/definitely/not/writable", .max_bytes = 0}),
      Error);
}

}  // namespace
