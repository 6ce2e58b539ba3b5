// Content-addressed golden-reference cache.
//
// The fleet's reference phase is its single most expensive fixed cost:
// every campaign re-simulates one golden print per distinct object even
// though the result is a pure function of (object geometry, slicer
// profile, reference seed, attached side-channel probes).  This store memoizes
// that function on disk, keyed by an FNV-1a digest of exactly those
// inputs, so a farm daemon computes each reference once per content hash
// and serves it from cache on every later campaign, replay, or session.
//
// On-disk record (<dir>/<16-hex-digest>.ref; the core/bytes.hpp codec,
// little endian):
//
//   "OFRF" magic, u16 version, u16 reserved, u64 key,
//   then the reference body (encode_reference):
//   u64 capture-blob length + Capture::to_binary bytes,
//   u64 power-sample count + per sample f64 t_s + f64 value (watts),
//   u64 acoustic-sample count + per sample f64 t_s + f64 value,
//   u64 vibration-sample count + per sample f64 t_s + f64 value
//
// The reader is core::ByteReader (every length prefix checked against
// the remaining input before allocation) and paranoid: trailing garbage,
// a version skew, a key that disagrees with the filename, or a golden
// sample time that is non-finite, negative, out of order or past
// kMaxTraceSpanS all reject the entry, and a rejected entry is deleted
// and treated as a miss - the caller recomputes, the cache never crashes
// a campaign.  Writes go through core::write_file_atomic, so a
// half-written entry (crash, chaos kCacheTear) can never be read back as
// truth.  An optional byte budget is enforced LRU by file mtime (get()
// refreshes an entry's mtime), evicting oldest-first but never the entry
// just written.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "core/capture.hpp"
#include "host/slicer.hpp"
#include "plant/side_channel.hpp"
#include "svc/channel.hpp"

namespace offramps::svc {

/// Digest of every input the reference print is a function of: object
/// geometry, the full slicer profile, the reference jitter seed, and
/// which side-channel probes were attached (a power-only golden must
/// never silently disarm the acoustic channel of a campaign that wants
/// it - each channel flag is part of the key, so enabling a new channel
/// forces a recompute instead of serving a golden with no trace for it).
[[nodiscard]] std::uint64_t reference_digest(double cube_mm,
                                             double height_mm,
                                             const host::SliceProfile& profile,
                                             std::uint64_t reference_seed,
                                             const ChannelSet& channels);

/// Feeds the 19 slicer-profile fields, in declaration order, to `f`.
/// reference_digest and svc::campaign_digest both hash the profile this
/// way; changing the order moves both digests.
void hash_profile(core::Fnv1a& f, const host::SliceProfile& p);

struct RefCacheOptions {
  std::string dir;
  /// LRU byte budget; 0 = unbounded.
  std::uint64_t max_bytes = 0;
};

/// One golden reference: the clean reference print's capture plus its
/// side-channel traces (each empty when that probe was not attached).
/// The fleet, the daemon, the cache and the checkpoint all hold this.
struct RefEntry {
  core::Capture golden;
  plant::SideTrace golden_power;
  plant::SideTrace golden_acoustic;
  plant::SideTrace golden_vibration;

  /// The detector references this entry arms (`oracle` may be null).
  [[nodiscard]] ChannelRefs refs(const analyze::Oracle* oracle) const {
    return {&golden, oracle, &golden_power, &golden_acoustic,
            &golden_vibration};
  }
};

/// Latest golden sample time decode_reference accepts (one week).
/// detect::window_means emits one mean per window up to the last sample,
/// so this bounds a hostile trace at ~4.8 MB of means for 1 s windows; a
/// real print's trace spans minutes.
inline constexpr double kMaxTraceSpanS = 7 * 24 * 3600.0;

/// Reference body codec, shared by the cache record and the checkpoint:
/// u64 capture-blob length + Capture::to_binary bytes, then for power,
/// acoustic and vibration a u64 sample count + per sample f64 t_s +
/// f64 value.
void encode_reference(std::vector<std::uint8_t>& out, const RefEntry& entry);
/// Reads one reference body from `r`.  Throws offramps::Error on
/// malformed input, including a sample time that is non-finite,
/// negative, earlier than the previous sample or past kMaxTraceSpanS.
[[nodiscard]] RefEntry decode_reference(core::ByteReader& r);

class RefCache {
 public:
  static constexpr std::uint16_t kVersion = 2;

  /// Creates `options.dir` if needed.  Throws offramps::Error when the
  /// directory cannot be created.
  explicit RefCache(RefCacheOptions options);

  RefCache(const RefCache&) = delete;
  RefCache& operator=(const RefCache&) = delete;

  /// Cache lookup.  nullopt on miss or on a rejected (truncated,
  /// corrupt, version-skewed, mis-keyed) entry; rejected entries are
  /// deleted so they cannot poison later campaigns.  Thread-safe.
  [[nodiscard]] std::optional<RefEntry> get(std::uint64_t key);

  /// Inserts (or overwrites) an entry via write-to-temp + atomic rename,
  /// then enforces the LRU byte budget.  Thread-safe.
  void put(std::uint64_t key, const RefEntry& entry);

  /// Where `key` lives on disk.
  [[nodiscard]] std::string path_for(std::uint64_t key) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Entries that existed but failed validation (subset of misses).
    std::uint64_t rejected = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Record codec, exposed for tests and the fuzz harness.  encode never
  /// fails; decode throws offramps::Error on any malformation, including
  /// a key that differs from `expect_key`.
  [[nodiscard]] static std::vector<std::uint8_t> encode_entry(
      std::uint64_t key, const RefEntry& entry);
  [[nodiscard]] static RefEntry decode_entry(const std::uint8_t* data,
                                             std::size_t size,
                                             std::uint64_t expect_key);

 private:
  void enforce_budget_locked();

  RefCacheOptions options_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace offramps::svc
