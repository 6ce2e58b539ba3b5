#include "svc/online_detector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "obs/metrics.hpp"

namespace offramps::svc {

const ChannelVerdict* OnlineReport::verdict(Channel c) const {
  for (const ChannelVerdict& v : channels) {
    if (v.channel == c) return &v;
  }
  return nullptr;
}

std::string OnlineReport::to_string() const {
  char buf[256];
  if (!alarmed) {
    std::snprintf(buf, sizeof(buf),
                  "clean (%zu windows, ring high-water %zu, %llu stalls)",
                  windows_processed, ring_high_water,
                  static_cast<unsigned long long>(backpressure_stalls));
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "ALARM %s at window %u (t=%.3f s%s%s)%s",
                channel_name(first_channel), alarm_window,
                static_cast<double>(alarm_tick_ns) / 1e9,
                alarm_gcode_line != 0 ? ", line " : "",
                alarm_gcode_line != 0
                    ? std::to_string(alarm_gcode_line).c_str()
                    : "",
                alarmed_mid_print ? " [mid-print]" : " [post-print]");
  return buf;
}

std::size_t estimate_gcode_line(const analyze::Oracle& oracle,
                                const std::array<std::int32_t, 4>& counts) {
  if (!oracle.counters_armed) return 0;
  // Progress axis: cumulative E + Z steps.  Both are near-monotone over a
  // legitimate print (E net-advances, Z only rises), so the observed sum
  // picks out a unique position along the program even when X/Y wander
  // back and forth.
  const std::int64_t progress =
      static_cast<std::int64_t>(counts[2]) +
      static_cast<std::int64_t>(counts[3]);
  std::int64_t acc = 0;
  std::size_t line = 0;
  for (const auto& seg : oracle.segments) {
    if (!seg.counted) continue;
    line = seg.command_index + 1;  // 1-based program line
    acc += seg.delta_steps[2] + seg.delta_steps[3];
    if (acc >= progress) return line;
  }
  return line;
}

OnlineDetector::OnlineDetector(OnlineDetectorOptions options,
                               ChannelRefs refs)
    : ring_(options.ring_capacity),
      refs_(refs),
      channels_(make_channels(options)) {
  for (auto& channel : channels_) {
    channel->arm(refs_);
    if (const std::optional<SampleKind> kind = channel->sample_kind()) {
      const auto k = static_cast<std::size_t>(*kind);
      if (sample_routes_.size() <= k) sample_routes_.resize(k + 1);
      sample_routes_[k].push_back(channel.get());
    }
  }
}

void OnlineDetector::submit(const core::Transaction& txn) {
  if (ring_.try_push(txn)) return;
  // Backpressure: the producer stalls while the backlog is consumed
  // inline.  Nothing is dropped; the stall is visible in the report.
  ++backpressure_stalls_;
  drain();
  if (!ring_.try_push(txn)) {
    // Only reachable when an alarm callback produced a window while the
    // ring was already draining: consume it inline rather than lose it.
    process(txn);
  }
}

void OnlineDetector::submit_sample(SampleKind kind, double t_s,
                                   double value) {
  const auto k = static_cast<std::size_t>(kind);
  if (k >= sample_routes_.size()) return;  // no channel reads this kind
  // A fresh vector per event is free on the hot path: it only allocates
  // when a channel actually trips, and keeps alarm-callback re-entrancy
  // from sharing scratch state.
  std::vector<ChannelTrip> trips;
  for (DetectionChannel* channel : sample_routes_[k]) {
    channel->on_sample(t_s, value, ctx_, trips);
  }
  fuse(trips);
}

std::size_t OnlineDetector::poll(std::size_t max_windows) {
  std::size_t done = 0;
  core::Transaction txn;
  while (done < max_windows && ring_.try_pop(txn)) {
    process(txn);
    ++done;
  }
  return done;
}

std::size_t OnlineDetector::drain() {
  // Re-entrancy guard: an alarm callback raised from process() may stall
  // its own producer, which would call back into drain().
  if (draining_) return 0;
  draining_ = true;
  std::size_t done = 0;
  core::Transaction txn;
  while (ring_.try_pop(txn)) {
    process(txn);
    ++done;
  }
  draining_ = false;
  return done;
}

void OnlineDetector::process(const core::Transaction& txn) {
  if (obs::enabled()) {
    if (obs_windows_ == nullptr) {
      obs_windows_ = &obs::Registry::instance().counter(
          "svc.detector.windows");
      obs_window_us_ = &obs::Registry::instance().histogram(
          "svc.detector.window_us", obs::latency_buckets_us());
    }
    obs_windows_->add(1);
    if (--obs_sample_countdown_ == 0) {
      obs_sample_countdown_ = obs::kLatencySampleEvery;
      const auto t0 = std::chrono::steady_clock::now();
      process_impl(txn);
      obs_window_us_->observe(obs::us_since(t0));
    } else {
      process_impl(txn);
    }
    return;
  }
  process_impl(txn);
}

void OnlineDetector::process_impl(const core::Transaction& txn) {
  ++report_.windows_processed;
  ctx_.windows_processed = report_.windows_processed;
  ctx_.last_counts = txn.counts;
  ctx_.last_tick_ns = txn.time_ns;

  std::vector<ChannelTrip> trips;
  for (auto& channel : channels_) {
    channel->on_transaction(txn, ctx_, trips);
  }
  fuse(trips);
}

void OnlineDetector::finish(const core::Capture& capture) {
  drain();
  finished_ = true;
  report_.stream_finished = true;

  // Export the ring-buffer health this detector already tracks: the
  // gauge's max is the worst occupancy across every detector in the
  // process, the counter the fleet-wide stall total.
  if (obs::enabled()) {
    // Cold end-of-stream path: one registry lookup per finish() is
    // noise, no cached handles needed.
    obs::Registry::instance()
        .gauge("svc.detector.ring_high_water")
        .set(static_cast<std::int64_t>(ring_.high_water()));
    obs::Registry::instance()
        .counter("svc.detector.backpressure_stalls")
        .add(backpressure_stalls_);
  }

  std::vector<ChannelTrip> trips;
  for (auto& channel : channels_) {
    channel->on_finish(capture, ctx_, trips);
  }
  fuse(trips);
}

void OnlineDetector::fuse(const std::vector<ChannelTrip>& trips) {
  const ChannelTrip* first = pick_first_trip(trips);
  if (first != nullptr) raise(*first);
}

void OnlineDetector::raise(const ChannelTrip& trip) {
  if (report_.alarmed) return;
  report_.alarmed = true;
  report_.alarmed_mid_print = !finished_;
  report_.first_channel = trip.channel;
  report_.alarm_window = trip.window;
  report_.alarm_tick_ns = trip.tick_ns;
  report_.alarm_gcode_line =
      refs_.oracle != nullptr ? estimate_gcode_line(*refs_.oracle, trip.counts)
                              : 0;
  if (on_alarm_) on_alarm_(report());
}

OnlineReport OnlineDetector::report() const {
  OnlineReport r = report_;
  r.ring_high_water = ring_.high_water();
  r.backpressure_stalls = backpressure_stalls_;
  for (const auto& channel : channels_) {
    r.channels.push_back(channel->verdict());
  }
  return r;
}

}  // namespace offramps::svc
