// Side-channel signature detection - reimplementations of the defense
// classes the paper compares itself against, used here as baselines in
// the lossless-vs-lossy ablation:
//
//   * power signatures (Gatlin et al. 2019): golden and observed traces
//     are reduced to per-window mean power; a window disagreeing by more
//     than the tolerance is a mismatch, and sustained mismatches mean
//     sabotage;
//   * multi-modal acoustic/vibration sensing (arXiv:2110.02259): the
//     same windowed-mean machinery over any scalar emission trace;
//   * audio signing (arXiv:1705.06454): the golden acoustic trace is
//     distilled into a compact master signature (windowed levels plus a
//     digest of the recording), and an observed print is verified
//     against that signature rather than the raw golden trace.
//
// Each channel's measurement noise forces a generous tolerance, which is
// exactly the sensitivity gap OFFRAMPS' direct signal taps close.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plant/side_channel.hpp"

namespace offramps::detect {

/// Side-channel signature comparison tuning.
struct SideSignatureOptions {
  double window_s = 1.0;        // averaging window
  double tolerance = 4.0;       // allowed mean-level deviation per window
  std::uint32_t consecutive_to_flag = 3;
  /// Ignore windows this close to print start/end (alignment slop).
  std::uint32_t skip_edge_windows = 2;
};

/// Power-signature tuning: 1 s windows and a 3 W tolerance, wide enough
/// for the current clamp's noise.
inline constexpr SideSignatureOptions kPowerSignature{1.0, 3.0, 3, 2};

/// One disagreeing window of a side channel.
struct SideMismatch {
  std::size_t window = 0;
  double golden = 0.0;
  double observed = 0.0;
};

/// Side-channel verdict.
struct SideReport {
  std::vector<SideMismatch> mismatches;
  std::size_t windows_compared = 0;
  double largest_delta = 0.0;
  bool sabotage_likely = false;

  [[nodiscard]] std::string to_string(std::size_t max_lines = 6) const;
  [[nodiscard]] std::string to_json() const;
};

/// Audio-signing master signature: the golden recording reduced to its
/// per-window levels plus a digest binding those levels to the window
/// size.  The digest is what a reference cache or a signed release
/// manifest would store and check.
struct MasterSignature {
  double window_s = 1.0;
  std::vector<double> levels;
  std::uint64_t digest = 0;

  [[nodiscard]] bool empty() const { return levels.empty(); }
};

/// Reduces a side-channel trace to per-window mean levels.
std::vector<double> window_means(const plant::SideTrace& trace,
                                 double window_s);

/// Compares an observed side-channel trace against the golden trace.
SideReport compare_side(const plant::SideTrace& golden,
                        const plant::SideTrace& observed,
                        const SideSignatureOptions& options = {});

/// FNV-1a over the signature's window size and levels (bit patterns, so
/// the digest is exact and platform-stable).
std::uint64_t signature_digest(const std::vector<double>& levels,
                               double window_s);

/// Distills a golden recording into a master signature.
MasterSignature make_master_signature(const plant::SideTrace& golden,
                                      double window_s);

/// Verifies an observed recording against a master signature (the audio
/// signing check: windowed levels within tolerance, sustained deviation
/// means the print diverged from the signed recording).
SideReport verify_signature(const MasterSignature& signature,
                            const plant::SideTrace& observed,
                            const SideSignatureOptions& options = {});

}  // namespace offramps::detect
