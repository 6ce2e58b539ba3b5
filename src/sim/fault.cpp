#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/error.hpp"

namespace offramps::sim {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kStuckHigh: return "stuck_high";
    case FaultKind::kStuckLow: return "stuck_low";
    case FaultKind::kGlitch: return "glitch";
    case FaultKind::kAnalogOpen: return "analog_open";
    case FaultKind::kAnalogShort: return "analog_short";
    case FaultKind::kAnalogDrift: return "analog_drift";
    case FaultKind::kUartBitFlip: return "uart_bit_flip";
    case FaultKind::kUartDropByte: return "uart_drop_byte";
    case FaultKind::kUartDupByte: return "uart_dup_byte";
    case FaultKind::kTimingJitter: return "timing_jitter";
  }
  return "unknown";
}

bool fault_targets_digital(FaultKind k) {
  return k == FaultKind::kStuckHigh || k == FaultKind::kStuckLow ||
         k == FaultKind::kGlitch;
}

bool fault_targets_analog(FaultKind k) {
  return k == FaultKind::kAnalogOpen || k == FaultKind::kAnalogShort ||
         k == FaultKind::kAnalogDrift;
}

bool fault_targets_stream(FaultKind k) {
  return k == FaultKind::kUartBitFlip || k == FaultKind::kUartDropByte ||
         k == FaultKind::kUartDupByte;
}

bool fault_targets_timing(FaultKind k) {
  return k == FaultKind::kTimingJitter;
}

std::string FaultSpec::describe() const {
  std::ostringstream os;
  os << fault_kind_name(kind);
  if (!target.empty()) os << '@' << target;
  os << " i=" << intensity << " window=[" << to_seconds(start) << "s,";
  if (stop == 0) {
    os << "end)";
  } else {
    os << to_seconds(stop) << "s)";
  }
  return os.str();
}

FaultInjector::~FaultInjector() {
  // A timing fault lasts as long as the injector that armed it: unhook
  // the warp before the scheduler outlives us.
  if (owns_time_warp_) sched_.set_time_warp(nullptr);
}

namespace {
constexpr double kAdcFullScale = 1023.0;
}  // namespace

struct FaultInjector::GlitchState {
  Wire* wire = nullptr;
  std::shared_ptr<Rng> rng;
  double rate_hz = 0.0;  // mean glitches per second
  Tick width = 0;
  Tick stop = 0;  // 0 = unbounded
};

void FaultInjector::inject_digital(const FaultSpec& spec, Wire& wire) {
  if (!fault_targets_digital(spec.kind)) {
    throw Error("FaultInjector::inject_digital: " +
                std::string(fault_kind_name(spec.kind)) +
                " is not a digital fault");
  }
  ++armed_;
  if (!spec.enabled()) return;

  switch (spec.kind) {
    case FaultKind::kStuckHigh:
    case FaultKind::kStuckLow: {
      const bool level = spec.kind == FaultKind::kStuckHigh;
      Wire* w = &wire;
      sched_.schedule_at(std::max(spec.start, sched_.now()), [this, w, level] {
        w->force_fault(level);
        ++stats_.stuck_engagements;
      });
      if (spec.stop != 0) {
        sched_.schedule_at(std::max(spec.stop, sched_.now()),
                           [w] { w->force_fault(std::nullopt); });
      }
      break;
    }
    case FaultKind::kGlitch: {
      auto st = std::make_shared<GlitchState>();
      st->wire = &wire;
      st->rng = std::make_shared<Rng>(spec.seed);
      st->rate_hz = spec.intensity;
      st->width = std::max<Tick>(spec.glitch_width, 1);
      st->stop = spec.stop;
      rngs_.push_back(st->rng);
      sched_.schedule_at(std::max(spec.start, sched_.now()),
                         [this, st] { schedule_glitch(st); });
      break;
    }
    default:
      break;
  }
}

void FaultInjector::schedule_glitch(const std::shared_ptr<GlitchState>& st) {
  // Exponential inter-arrival times approximate a Poisson glitch process.
  const double mean_gap_s = 1.0 / st->rate_hz;
  const double u = std::max(st->rng->uniform(0.0, 1.0), 1e-12);
  const double gap_s = -mean_gap_s * std::log(u);
  const Tick gap = std::max<Tick>(from_seconds(gap_s), 1);
  sched_.schedule_in(gap, [this, st] {
    if (st->stop != 0 && sched_.now() >= st->stop) return;
    // A glitch forces the opposite of the current level for `width`, then
    // releases the net back to its driver.
    Wire* w = st->wire;
    const bool glitch_level = !w->level();
    w->force_fault(glitch_level);
    ++stats_.glitches;
    sched_.schedule_in(st->width, [w] {
      // Only release if a longer-lived stuck fault hasn't taken over.
      if (w->fault().has_value()) w->force_fault(std::nullopt);
    });
    schedule_glitch(st);
  });
}

void FaultInjector::inject_analog(const FaultSpec& spec,
                                  AnalogChannel& channel) {
  if (!fault_targets_analog(spec.kind)) {
    throw Error("FaultInjector::inject_analog: " +
                std::string(fault_kind_name(spec.kind)) +
                " is not an analog fault");
  }
  ++armed_;
  if (!spec.enabled()) return;

  AnalogChannel* ch = &channel;
  const Tick start = std::max(spec.start, sched_.now());
  switch (spec.kind) {
    case FaultKind::kAnalogOpen:
      sched_.schedule_at(start, [this, ch] {
        ch->set_fault([](double) { return kAdcFullScale; });
        ++stats_.analog_engagements;
      });
      break;
    case FaultKind::kAnalogShort:
      sched_.schedule_at(start, [this, ch] {
        ch->set_fault([](double) { return 0.0; });
        ++stats_.analog_engagements;
      });
      break;
    case FaultKind::kAnalogDrift: {
      // Offset grows linearly from the engagement instant: intensity ADC
      // counts per second, clamped to the 10-bit range.
      const double counts_per_tick =
          spec.intensity / static_cast<double>(seconds(1));
      sched_.schedule_at(start, [this, ch, start, counts_per_tick] {
        Scheduler* sched = &sched_;
        ch->set_fault([sched, start, counts_per_tick](double v) {
          const double drift =
              counts_per_tick * static_cast<double>(sched->now() - start);
          return std::clamp(v + drift, 0.0, kAdcFullScale);
        });
        ++stats_.analog_engagements;
      });
      break;
    }
    default:
      break;
  }
  if (spec.stop != 0) {
    sched_.schedule_at(std::max(spec.stop, sched_.now()),
                       [ch] { ch->set_fault(nullptr); });
  }
}

void FaultInjector::inject_timing(const FaultSpec& spec) {
  if (!fault_targets_timing(spec.kind)) {
    throw Error("FaultInjector::inject_timing: " +
                std::string(fault_kind_name(spec.kind)) +
                " is not a timing fault");
  }
  ++armed_;
  if (!spec.enabled()) return;
  if (timing_armed_) {
    throw Error("FaultInjector::inject_timing: a timing fault is already "
                "armed; jitter sources do not compose");
  }
  timing_armed_ = true;

  const std::uint64_t seed = spec.seed;
  const Tick max_jitter = us(static_cast<std::uint64_t>(spec.intensity));
  const Tick start = spec.start;
  const Tick stop = spec.stop;
  // The window gates on the requested fire time, not the scheduling
  // instant, so an event placed early for after the window stays exact.
  // The jitter is a pure function of (seed, requested tick), not a draw
  // from a stream: an event's delay cannot depend on how many other
  // events were scheduled before it, and events requested for one tick
  // share one delay, so they keep their FIFO order.
  sched_.set_time_warp(
      [seed, max_jitter, start, stop](Tick, Tick requested) -> Tick {
        if (requested < start || (stop != 0 && requested >= stop)) {
          return requested;
        }
        return requested + mix64(seed ^ mix64(requested)) % (max_jitter + 1);
      });
  owns_time_warp_ = true;
  ++stats_.timing_windows;
}

FaultInjector::StreamFault FaultInjector::make_stream_fault(
    const FaultSpec& spec) {
  if (!fault_targets_stream(spec.kind)) {
    throw Error("FaultInjector::make_stream_fault: " +
                std::string(fault_kind_name(spec.kind)) +
                " is not a stream fault");
  }
  ++armed_;
  if (!spec.enabled()) return nullptr;

  auto rng = std::make_shared<Rng>(spec.seed);
  rngs_.push_back(rng);
  const double p = std::min(spec.intensity, 1.0);
  const FaultKind kind = spec.kind;
  const Tick start = spec.start;
  const Tick stop = spec.stop;
  Scheduler* sched = &sched_;
  Stats* stats = &stats_;
  return [rng, p, kind, start, stop, sched,
          stats](std::vector<std::uint8_t>& bytes) {
    const Tick now = sched->now();
    if (now < start || (stop != 0 && now >= stop)) return;
    switch (kind) {
      case FaultKind::kUartBitFlip:
        for (auto& b : bytes) {
          if (rng->chance(p)) {
            b ^= static_cast<std::uint8_t>(1u << rng->uniform_int(0, 7));
            ++stats->bytes_flipped;
          }
        }
        break;
      case FaultKind::kUartDropByte: {
        std::vector<std::uint8_t> kept;
        kept.reserve(bytes.size());
        for (auto b : bytes) {
          if (rng->chance(p)) {
            ++stats->bytes_dropped;
          } else {
            kept.push_back(b);
          }
        }
        bytes.swap(kept);
        break;
      }
      case FaultKind::kUartDupByte: {
        std::vector<std::uint8_t> out;
        out.reserve(bytes.size() + 4);
        for (auto b : bytes) {
          out.push_back(b);
          if (rng->chance(p)) {
            out.push_back(b);
            ++stats->bytes_duplicated;
          }
        }
        bytes.swap(out);
        break;
      }
      default:
        break;
    }
  };
}

}  // namespace offramps::sim
