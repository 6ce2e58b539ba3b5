// Campaign checkpoint/resume.
//
// A fleet campaign is hours of simulation on a real farm; losing it to a
// host crash at rig 47/48 is exactly the kind of fragility the
// supervisor exists to remove.  The checkpoint persists everything a
// resumed process needs to finish the campaign *byte-identically*:
//
//   - a digest of the fleet spec + behavior-relevant options, so a
//     checkpoint is only ever replayed against the campaign that wrote
//     it (resuming with edited specs is a hard error, not silent skew);
//   - every per-object golden reference (capture + side-channel
//     traces), so resumed rigs never re-print references;
//   - every completed rig's flattened RigOutcome, so resumed campaigns
//     skip those rigs entirely and still render the same report bytes.
//
// Binary format v3 (the core/bytes.hpp codec, little endian):
//   "OFCK" magic, u16 version, u16 reserved,
//   u64 spec digest, u32 total rigs,
//   u32 reference count, then per reference the body svc::RefCache
//     stores too (svc::encode_reference: u64 blob length +
//     core::Capture::to_binary() bytes, then power, acoustic and
//     vibration traces, each a u64 sample count + per sample
//     2 x f64-as-u64-bits (t_s, value)),
//   u32 completed count, then per completed rig a flattened outcome
//   record (rig index, spec, supervision verdict, detector summary and
//   the per-channel verdict rows; the report derives every per-channel
//   count it renders from those rows).
// The reader is core::ByteReader: length prefixes are validated against
// the remaining input before any allocation and trailing bytes are
// rejected.
//
// Writes go through core::write_file_atomic ("<path>.tmp", then a
// rename POSIX makes atomic within a filesystem): a reader (or a resumed
// process) never observes a half-written checkpoint, only the old or
// the new one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "svc/fleet.hpp"
#include "svc/ref_cache.hpp"

namespace offramps::svc {

/// The persistent campaign state.
struct Checkpoint {
  static constexpr std::uint16_t kVersion = 3;

  std::uint64_t spec_digest = 0;
  /// Rig count of the whole campaign (so a resume can tell "done" from
  /// "everything").
  std::uint32_t total_rigs = 0;
  /// Per-object golden references, indexed like the fleet's first-seen
  /// object order (the sliced program and oracle are recomputed
  /// deterministically from the spec on resume).
  std::vector<RefEntry> references;
  /// Completed rigs: (spec index, outcome), sorted by spec index.
  std::vector<std::pair<std::uint32_t, RigOutcome>> done;

  [[nodiscard]] std::vector<std::uint8_t> to_binary() const;
  /// Throws offramps::Error on bad magic, unknown version, or any length
  /// prefix that exceeds the remaining input (truncated / corrupt file).
  static Checkpoint from_binary(const std::uint8_t* data, std::size_t size);
  static Checkpoint from_binary(const std::vector<std::uint8_t>& bytes) {
    return from_binary(bytes.data(), bytes.size());
  }

  /// Atomic persist (core::write_file_atomic): write "<path>.tmp",
  /// fsync-free rename over `path`.
  void save(const std::string& path) const;
  static Checkpoint load(const std::string& path);
};

/// FNV-1a over a normalized rendition of the specs and the options that
/// change campaign *behavior* (channels, seeds, ring capacity, retry
/// budget, slicer profile).  Worker count and checkpoint paths are
/// deliberately excluded: they do not change results.
[[nodiscard]] std::uint64_t campaign_digest(const std::vector<RigSpec>& specs,
                                            const FleetOptions& options);

}  // namespace offramps::svc
