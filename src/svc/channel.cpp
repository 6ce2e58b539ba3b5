#include "svc/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "svc/online_detector.hpp"

namespace offramps::svc {

const char* channel_name(Channel c) {
  // Exhaustive by construction: -Werror=switch flags a new Channel value
  // the moment it is added without a name.
  switch (c) {
    case Channel::kNone: return "none";
    case Channel::kGoldenCompare: return "golden-compare";
    case Channel::kStreamLength: return "stream-length";
    case Channel::kGoldenFree: return "golden-free";
    case Channel::kPower: return "power";
    case Channel::kFinalCounts: return "final-counts";
    case Channel::kStaticOracle: return "static-oracle";
    case Channel::kAcoustic: return "acoustic";
    case Channel::kVibration: return "vibration";
  }
  return "?";
}

ChannelSet ChannelSet::parse(const std::string& text) {
  ChannelSet set{false, false, false, false};
  std::size_t pos = 0;
  bool any = false;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string token = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (token == "steps") {
      set.steps = true;
    } else if (token == "power") {
      set.power = true;
    } else if (token == "acoustic") {
      set.acoustic = true;
    } else if (token == "vibration") {
      set.vibration = true;
    } else if (token == "all") {
      set = ChannelSet{};
    } else {
      throw std::runtime_error("unknown channel group '" + token +
                               "' (want steps|power|acoustic|vibration|all)");
    }
    any = true;
    if (comma == text.size()) break;
  }
  if (!any || set == ChannelSet{false, false, false, false}) {
    throw std::runtime_error("empty channel set");
  }
  return set;
}

const ChannelTrip* pick_first_trip(const std::vector<ChannelTrip>& trips) {
  const ChannelTrip* best = nullptr;
  for (const ChannelTrip& trip : trips) {
    // Strictly-earlier window wins; an equal window keeps the earlier
    // trip (delivery order = make_channels order).
    if (best == nullptr || trip.window < best->window) best = &trip;
  }
  return best;
}

void DetectionChannel::record_trip(std::uint32_t window,
                                   std::uint64_t tick_ns,
                                   const std::array<std::int32_t, 4>& counts,
                                   std::vector<ChannelTrip>& trips) {
  if (!verdict_.tripped) {
    verdict_.tripped = true;
    verdict_.trip_window = window;
  }
  trips.push_back({verdict_.channel, window, tick_ns, counts});
}

ChannelVerdict DetectionChannel::row(std::uint64_t windows_compared,
                                     std::uint64_t mismatches) const {
  ChannelVerdict v = verdict_;
  v.windows_compared = windows_compared;
  v.mismatches = mismatches;
  return v;
}

namespace {

// ---------------------------------------------------------------------
// Windowed side-channel streaming (the online equivalent of
// detect::compare_side): accumulate per-window means against a golden
// window series, mismatch over tolerance, sustained mismatches trip.
// Empty windows (sampling gaps) repeat the previous mean, mirroring
// detect::window_means so the online channel sees the same series the
// offline compare would.
class WindowStream {
 public:
  void arm(std::vector<double> golden,
           const detect::SideSignatureOptions& options) {
    golden_ = std::move(golden);
    options_ = options;
  }

  [[nodiscard]] bool armed() const { return !golden_.empty(); }

  /// Feeds one sample.  Returns true when a window closed over the
  /// consecutive-mismatch threshold (a trip).  Session streams arrive
  /// from outside the process, so a sample timed non-finite or before
  /// the first one is ignored, and windows past the golden length -
  /// never compared - are not closed one by one.
  bool push(double t_s, double value) {
    if (golden_.empty() || options_.window_s <= 0.0 ||
        !std::isfinite(t_s)) {
      return false;
    }
    if (!have_t0_) {
      have_t0_ = true;
      t0_ = t_s;
    }
    if (t_s < t0_) return false;
    const auto w = static_cast<std::size_t>(
        std::min((t_s - t0_) / options_.window_s,
                 static_cast<double>(golden_.size())));
    bool tripped = false;
    while (window_ < w) tripped = close_window() || tripped;
    sum_ += value;
    ++n_;
    return tripped;
  }

  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] std::uint64_t windows_compared() const {
    return windows_compared_;
  }

 private:
  bool close_window() {
    const double mean =
        n_ > 0 ? sum_ / static_cast<double>(n_) : last_mean_;
    last_mean_ = mean;
    const std::size_t idx = window_;
    ++window_;
    sum_ = 0.0;
    n_ = 0;

    if (idx >= golden_.size()) return false;
    ++windows_compared_;
    // Leading edge windows (heat-up / homing transients) are skipped
    // just like the offline comparison; the trailing edge skip falls
    // out of finish() never closing the last partial windows.
    if (idx < options_.skip_edge_windows) return false;
    if (std::abs(golden_[idx] - mean) > options_.tolerance) {
      ++mismatches_;
      ++consecutive_;
      return consecutive_ >= options_.consecutive_to_flag;
    }
    consecutive_ = 0;
    return false;
  }

  std::vector<double> golden_;
  detect::SideSignatureOptions options_;

  std::size_t window_ = 0;  // index of the window being filled
  double t0_ = 0.0;
  bool have_t0_ = false;
  double sum_ = 0.0;
  std::size_t n_ = 0;
  double last_mean_ = 0.0;
  std::uint32_t consecutive_ = 0;

  std::uint64_t mismatches_ = 0;
  std::uint64_t windows_compared_ = 0;
};

// ---------------------------------------------------------------------
// The channels, in the legacy fusion priority order.

/// Windowed step-count compare against the golden capture (the paper's
/// section V-C method, via detect::compare_transaction).
class GoldenCompareChannel final : public DetectionChannel {
 public:
  explicit GoldenCompareChannel(const OnlineDetectorOptions& options)
      : DetectionChannel(Channel::kGoldenCompare),
        compare_(options.compare),
        consecutive_to_alarm_(options.consecutive_to_alarm) {}

  void arm(const ChannelRefs& refs) override {
    golden_ = refs.golden;
    set_armed(golden_ != nullptr);
  }

  void on_transaction(const core::Transaction& txn, const StreamContext&,
                      std::vector<ChannelTrip>& trips) override {
    if (golden_ == nullptr) return;
    if (txn.index >= golden_->transactions.size()) return;
    ++compared_;
    const bool bad = detect::compare_transaction(
        golden_->transactions[txn.index], txn, compare_, mismatches_);
    consecutive_ = bad ? consecutive_ + 1 : 0;
    if (consecutive_ >= consecutive_to_alarm_) {
      record_trip(txn.index, txn.time_ns, txn.counts, trips);
    }
  }

  [[nodiscard]] ChannelVerdict verdict() const override {
    return row(compared_, mismatches_.size());
  }

 private:
  detect::CompareOptions compare_;
  std::uint32_t consecutive_to_alarm_;
  const core::Capture* golden_ = nullptr;
  std::uint32_t consecutive_ = 0;
  std::vector<detect::Mismatch> mismatches_;
  std::uint64_t compared_ = 0;
};

/// Sustained stream overrun past the golden length (print-lengthening
/// Trojans).  Tolerates the compare length tolerance plus a fixed slack
/// (time noise stretches prints slightly).
class StreamLengthChannel final : public DetectionChannel {
 public:
  explicit StreamLengthChannel(const OnlineDetectorOptions& options)
      : DetectionChannel(Channel::kStreamLength),
        length_tolerance_(options.compare.length_tolerance),
        slack_windows_(options.length_slack_windows) {}

  void arm(const ChannelRefs& refs) override {
    golden_ = refs.golden;
    set_armed(golden_ != nullptr);
  }

  void on_transaction(const core::Transaction& txn, const StreamContext&,
                      std::vector<ChannelTrip>& trips) override {
    if (golden_ == nullptr) return;
    const std::size_t golden_len = golden_->transactions.size();
    if (txn.index < golden_len) return;
    ++overrun_windows_;
    const double allowed =
        static_cast<double>(golden_len) * length_tolerance_ +
        static_cast<double>(slack_windows_);
    const auto over = static_cast<double>(txn.index - golden_len + 1);
    if (over > allowed) {
      ++beyond_allowed_;
      record_trip(txn.index, txn.time_ns, txn.counts, trips);
    }
  }

  [[nodiscard]] ChannelVerdict verdict() const override {
    return row(overrun_windows_, beyond_allowed_);
  }

 private:
  double length_tolerance_;
  std::uint32_t slack_windows_;
  const core::Capture* golden_ = nullptr;
  std::uint64_t overrun_windows_ = 0;
  std::uint64_t beyond_allowed_ = 0;
};

/// Physical-plausibility rules (no reference needed).
class GoldenFreeChannel final : public DetectionChannel {
 public:
  explicit GoldenFreeChannel(const OnlineDetectorOptions& options)
      : DetectionChannel(Channel::kGoldenFree),
        golden_free_(options.machine),
        min_violations_(options.golden_free_min_violations) {
    set_armed(true);  // reference-free: always able to judge
  }

  void on_transaction(const core::Transaction& txn, const StreamContext&,
                      std::vector<ChannelTrip>& trips) override {
    ++windows_;
    golden_free_.push(txn);
    if (golden_free_.violation_count() >= min_violations_) {
      record_trip(txn.index, txn.time_ns, txn.counts, trips);
    }
  }

  [[nodiscard]] ChannelVerdict verdict() const override {
    return row(windows_, golden_free_.violation_count());
  }

 private:
  detect::StreamingGoldenFree golden_free_;
  std::size_t min_violations_;
  std::uint64_t windows_ = 0;
};

/// One physical side channel (power, acoustic, vibration): per-window
/// mean compare of its samples against its golden trace.  For acoustic
/// this is the audio-signing check - the golden trace's window levels
/// (detect::window_means, taken once per reference) are the signature.
class SideChannel final : public DetectionChannel {
 public:
  using Golden = const plant::SideTrace* ChannelRefs::*;
  using Means = const WindowMeans* ChannelRefs::*;

  SideChannel(Channel id, SampleKind kind,
              const detect::SideSignatureOptions& options, Golden golden,
              Means means)
      : DetectionChannel(id), kind_(kind), options_(options),
        golden_(golden), means_(means) {}

  void arm(const ChannelRefs& refs) override {
    const WindowMeans* means = refs.*means_;
    if (means != nullptr && means->window_s == options_.window_s) {
      stream_.arm(means->means, options_);
    } else if (const plant::SideTrace* golden = refs.*golden_) {
      stream_.arm(detect::window_means(*golden, options_.window_s),
                  options_);
    }
    set_armed(stream_.armed());
  }

  [[nodiscard]] std::optional<SampleKind> sample_kind() const override {
    return kind_;
  }

  void on_sample(double t_s, double value, const StreamContext& ctx,
                 std::vector<ChannelTrip>& trips) override {
    if (!stream_.push(t_s, value)) return;
    // Side-channel trips are attributed to the latest drained
    // transaction window (the stream position the operator can act on).
    const auto window = static_cast<std::uint32_t>(
        ctx.windows_processed == 0 ? 0 : ctx.windows_processed - 1);
    record_trip(window, ctx.last_tick_ns, ctx.last_counts, trips);
  }

  [[nodiscard]] ChannelVerdict verdict() const override {
    return row(stream_.windows_compared(), stream_.mismatches());
  }

 private:
  SampleKind kind_;
  detect::SideSignatureOptions options_;
  Golden golden_;
  Means means_;
  WindowStream stream_;
};

/// The paper's exact (0% margin) end-of-print totals check.  Only
/// meaningful when both prints ran to completion - a capture cut short
/// by our own safe-stop has nothing comparable to freeze.
class FinalCountsChannel final : public DetectionChannel {
 public:
  FinalCountsChannel() : DetectionChannel(Channel::kFinalCounts) {}

  void arm(const ChannelRefs& refs) override {
    golden_ = refs.golden;
    set_armed(golden_ != nullptr);
  }

  void on_finish(const core::Capture& capture, const StreamContext& ctx,
                 std::vector<ChannelTrip>& trips) override {
    if (golden_ == nullptr || !capture.print_completed ||
        !golden_->print_completed) {
      return;
    }
    checked_ = true;
    match_ = capture.final_counts == golden_->final_counts;
    if (!match_) {
      record_trip(capture.transactions.empty()
                      ? 0
                      : capture.transactions.back().index,
                  ctx.last_tick_ns, ctx.last_counts, trips);
    }
  }

  [[nodiscard]] ChannelVerdict verdict() const override {
    return row(checked_ ? 1 : 0, match_ ? 0 : 1);
  }

 private:
  const core::Capture* golden_ = nullptr;
  bool checked_ = false;
  bool match_ = true;
};

/// Static-oracle cross-check (tight margin, no golden print needed).
class StaticOracleChannel final : public DetectionChannel {
 public:
  explicit StaticOracleChannel(const OnlineDetectorOptions& options)
      : DetectionChannel(Channel::kStaticOracle),
        options_(options.static_check) {}

  void arm(const ChannelRefs& refs) override {
    oracle_ = refs.oracle;
    set_armed(oracle_ != nullptr);
  }

  void on_finish(const core::Capture& capture, const StreamContext& ctx,
                 std::vector<ChannelTrip>& trips) override {
    if (oracle_ == nullptr) return;
    ran_ = true;
    const detect::StaticCheckReport report =
        detect::static_check(*oracle_, capture, options_);
    suspected_ = report.trojan_suspected;
    if (report.trojan_suspected && report.print_completed &&
        report.oracle_armed) {
      record_trip(capture.transactions.empty()
                      ? 0
                      : capture.transactions.back().index,
                  ctx.last_tick_ns, ctx.last_counts, trips);
    }
  }

  [[nodiscard]] ChannelVerdict verdict() const override {
    return row(ran_ ? 1 : 0, suspected_ ? 1 : 0);
  }

 private:
  detect::StaticCheckOptions options_;
  const analyze::Oracle* oracle_ = nullptr;
  bool ran_ = false;
  bool suspected_ = false;
};

}  // namespace

std::vector<std::unique_ptr<DetectionChannel>> make_channels(
    const OnlineDetectorOptions& options) {
  // The legacy fused-detector priority, which is the fusion tie-break
  // order: step channels, then the side channels, then the end-of-print
  // checks.
  const ChannelSet& set = options.channels;
  std::vector<std::unique_ptr<DetectionChannel>> out;
  if (set.steps) {
    out.push_back(std::make_unique<GoldenCompareChannel>(options));
    out.push_back(std::make_unique<StreamLengthChannel>(options));
    if (options.golden_free) {
      out.push_back(std::make_unique<GoldenFreeChannel>(options));
    }
  }
  if (set.power) {
    out.push_back(std::make_unique<SideChannel>(
        Channel::kPower, SampleKind::kPower, options.power,
        &ChannelRefs::golden_power, &ChannelRefs::power_means));
  }
  if (set.acoustic) {
    out.push_back(std::make_unique<SideChannel>(
        Channel::kAcoustic, SampleKind::kAcoustic, options.acoustic,
        &ChannelRefs::golden_acoustic, &ChannelRefs::acoustic_means));
  }
  if (set.vibration) {
    out.push_back(std::make_unique<SideChannel>(
        Channel::kVibration, SampleKind::kVibration, options.vibration,
        &ChannelRefs::golden_vibration, &ChannelRefs::vibration_means));
  }
  if (set.steps && options.final_checks) {
    out.push_back(std::make_unique<FinalCountsChannel>());
    out.push_back(std::make_unique<StaticOracleChannel>(options));
  }
  return out;
}

}  // namespace offramps::svc
