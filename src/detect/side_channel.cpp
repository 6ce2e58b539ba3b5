#include "detect/side_channel.hpp"

#include <algorithm>
#include <cmath>

namespace offramps::detect {

std::vector<double> window_means(const plant::SideTrace& trace,
                                 double window_s) {
  std::vector<double> means;
  if (trace.empty() || window_s <= 0.0) return means;
  const double t0 = trace.front().t_s;
  double sum = 0.0;
  std::size_t n = 0;
  std::size_t window = 0;
  for (const plant::SideSample& s : trace) {
    const auto w = static_cast<std::size_t>((s.t_s - t0) / window_s);
    if (w != window) {
      if (n > 0) means.push_back(sum / static_cast<double>(n));
      // Emit empty windows (gaps) as repeats of the last mean.
      while (means.size() < w) {
        means.push_back(means.empty() ? 0.0 : means.back());
      }
      window = w;
      sum = 0.0;
      n = 0;
    }
    sum += s.value;
    ++n;
  }
  if (n > 0) means.push_back(sum / static_cast<double>(n));
  return means;
}

SideReport compare_side(const plant::SideTrace& golden,
                        const plant::SideTrace& observed,
                        const SideSignatureOptions& options) {
  const std::vector<double> g = window_means(golden, options.window_s);
  const std::vector<double> o = window_means(observed, options.window_s);
  SideReport rep;
  const std::size_t n = std::min(g.size(), o.size());
  rep.windows_compared = n;

  std::uint32_t consecutive = 0;
  const std::size_t skip = options.skip_edge_windows;
  for (std::size_t i = skip; i + skip < n; ++i) {
    const double delta = std::abs(g[i] - o[i]);
    rep.largest_delta = std::max(rep.largest_delta, delta);
    if (delta > options.tolerance) {
      rep.mismatches.push_back({i, g[i], o[i]});
      ++consecutive;
      if (consecutive >= options.consecutive_to_flag) {
        rep.sabotage_likely = true;
      }
    } else {
      consecutive = 0;
    }
  }
  return rep;
}

}  // namespace offramps::detect
