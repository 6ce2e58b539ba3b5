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
//   * audio signing (arXiv:1705.06454): the golden acoustic trace's
//     window means are the signature an observed print is checked
//     against (the fleet's acoustic `svc::SideChannel`).
//
// Each channel's measurement noise forces a generous tolerance, which is
// exactly the sensitivity gap OFFRAMPS' direct signal taps close.
#pragma once

#include <cstdint>
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
};

/// Reduces a side-channel trace to per-window mean levels.
std::vector<double> window_means(const plant::SideTrace& trace,
                                 double window_s);

/// Compares an observed side-channel trace against the golden trace.
SideReport compare_side(const plant::SideTrace& golden,
                        const plant::SideTrace& observed,
                        const SideSignatureOptions& options = {});

}  // namespace offramps::detect
