#include "svc/checkpoint.hpp"

#include <algorithm>
#include <chrono>

#include "core/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace offramps::svc {

namespace {

using core::ByteReader;
using core::ByteWriter;

constexpr std::string_view kMagic = "OFCK";

template <typename Enum>
Enum read_enum(ByteReader& r, std::uint8_t max, const char* what) {
  const std::uint8_t raw = r.u8();
  if (raw > max) {
    r.fail(std::string("out-of-range ") + what + " value " +
           std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

// ------------------------------------------------------- outcome records

void put_outcome(ByteWriter& w, const RigOutcome& r) {
  w.str(r.spec.name);
  w.u64(r.spec.seed);
  w.f64(r.spec.cube_mm);
  w.f64(r.spec.height_mm);
  w.u8(static_cast<std::uint8_t>(r.spec.sabotage.kind));
  w.f64(r.spec.sabotage.factor);
  w.u32(r.spec.sabotage.every_n);
  w.u8(static_cast<std::uint8_t>(r.spec.chaos.kind));
  w.u32(r.spec.chaos.fires_for);
  w.f64(r.spec.chaos.crash_at_s);
  w.u32(r.spec.chaos.after);

  w.u8(static_cast<std::uint8_t>(r.status));
  w.u32(r.attempts);
  w.str(r.failure_cause);

  w.u8(r.print_finished ? 1 : 0);
  w.u8(r.safe_stopped ? 1 : 0);
  w.str(r.kill_reason);
  w.f64(r.sim_seconds);
  for (const std::int64_t c : r.final_counts) w.i64(c);

  const OnlineReport& d = r.detector;
  w.u8(d.alarmed ? 1 : 0);
  w.u8(d.alarmed_mid_print ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(d.first_channel));
  w.u32(d.alarm_window);
  w.u64(d.alarm_tick_ns);
  w.u64(d.alarm_gcode_line);
  w.u64(d.windows_processed);
  w.u64(d.ring_high_water);
  w.u64(d.backpressure_stalls);
  w.u8(d.stream_finished ? 1 : 0);

  // Per-channel verdict rows, persisted whole: the report renders every
  // field of the attribution array and derives its per-channel counts
  // from them.
  w.u8(static_cast<std::uint8_t>(d.channels.size()));
  for (const ChannelVerdict& v : d.channels) {
    w.u8(static_cast<std::uint8_t>(v.channel));
    w.u8(v.armed ? 1 : 0);
    w.u8(v.tripped ? 1 : 0);
    w.u32(v.trip_window);
    w.u64(v.windows_compared);
    w.u64(v.mismatches);
  }
}

RigOutcome read_outcome(ByteReader& r) {
  constexpr std::size_t kAny = ByteReader::kUncapped;
  RigOutcome out;
  out.spec.name = r.str(kAny, "rig name");
  out.spec.seed = r.u64();
  out.spec.cube_mm = r.f64();
  out.spec.height_mm = r.f64();
  out.spec.sabotage.kind = read_enum<Sabotage::Kind>(r, 2, "sabotage kind");
  out.spec.sabotage.factor = r.f64();
  out.spec.sabotage.every_n = r.u32();
  out.spec.chaos.kind = read_enum<host::ChaosKind>(r, 9, "chaos kind");
  out.spec.chaos.fires_for = r.u32();
  out.spec.chaos.crash_at_s = r.f64();
  out.spec.chaos.after = r.u32();

  out.status = read_enum<RigStatus>(r, 4, "rig status");
  out.attempts = r.u32();
  out.failure_cause = r.str(kAny, "failure cause");

  out.print_finished = r.u8() != 0;
  out.safe_stopped = r.u8() != 0;
  out.kill_reason = r.str(kAny, "kill reason");
  out.sim_seconds = r.f64();
  for (std::int64_t& c : out.final_counts) c = r.i64();

  OnlineReport& d = out.detector;
  d.alarmed = r.u8() != 0;
  d.alarmed_mid_print = r.u8() != 0;
  d.first_channel = read_enum<Channel>(r, kChannelCount - 1, "alarm channel");
  d.alarm_window = r.u32();
  d.alarm_tick_ns = r.u64();
  d.alarm_gcode_line = static_cast<std::size_t>(r.u64());
  d.windows_processed = static_cast<std::size_t>(r.u64());
  d.ring_high_water = static_cast<std::size_t>(r.u64());
  d.backpressure_stalls = r.u64();
  d.stream_finished = r.u8() != 0;

  const std::uint8_t n_channels = r.u8();
  if (n_channels > kChannelCount) {
    r.fail("channel verdict count exceeds channel space");
  }
  d.channels.resize(n_channels);
  for (ChannelVerdict& v : d.channels) {
    v.channel = read_enum<Channel>(r, kChannelCount - 1, "verdict channel");
    v.armed = r.u8() != 0;
    v.tripped = r.u8() != 0;
    v.trip_window = r.u32();
    v.windows_compared = r.u64();
    v.mismatches = r.u64();
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> Checkpoint::to_binary() const {
  std::vector<std::uint8_t> out;
  out.reserve(1024);
  ByteWriter w(out);
  w.bytes(kMagic.data(), kMagic.size());
  w.u16(kVersion);
  w.u16(0);  // reserved
  w.u64(spec_digest);
  w.u32(total_rigs);

  w.u32(static_cast<std::uint32_t>(references.size()));
  for (const RefEntry& ref : references) encode_reference(out, ref);

  w.u32(static_cast<std::uint32_t>(done.size()));
  for (const auto& [index, outcome] : done) {
    w.u32(index);
    put_outcome(w, outcome);
  }
  return out;
}

Checkpoint Checkpoint::from_binary(const std::uint8_t* data,
                                   std::size_t size) {
  ByteReader r(data, size, "checkpoint");
  r.magic(kMagic, "not an OFCK checkpoint");
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    r.fail("unsupported format version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kVersion) + ")");
  }
  (void)r.u16();  // reserved

  Checkpoint ck;
  ck.spec_digest = r.u64();
  ck.total_rigs = r.u32();

  // Each reference or completed-rig record takes at least 16 bytes.
  const std::size_t n_refs = r.count<std::uint32_t>(16, "reference count");
  ck.references.reserve(n_refs);
  for (std::size_t i = 0; i < n_refs; ++i) {
    ck.references.push_back(decode_reference(r));
  }

  const std::size_t n_done =
      r.count<std::uint32_t>(16, "completed rig count");
  if (n_done > ck.total_rigs) {
    r.fail("more completed rigs than the campaign has");
  }
  ck.done.reserve(n_done);
  for (std::size_t i = 0; i < n_done; ++i) {
    const std::uint32_t index = r.u32();
    if (index >= ck.total_rigs) {
      r.fail("completed rig index out of range");
    }
    ck.done.emplace_back(index, read_outcome(r));
  }
  r.finish();
  std::sort(ck.done.begin(), ck.done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return ck;
}

void Checkpoint::save(const std::string& path) const {
  const obs::Span span("checkpoint/save", "fleet");
  const auto t0 = std::chrono::steady_clock::now();
  core::write_file_atomic(path, to_binary(), "checkpoint");
  if (obs::enabled()) {
    static obs::Counter& saves =
        obs::Registry::instance().counter("svc.checkpoint.saves");
    saves.add(1);
    static obs::Histogram& latency = obs::Registry::instance().histogram(
        "svc.checkpoint.save_latency_us", obs::latency_buckets_us());
    latency.observe(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
}

Checkpoint Checkpoint::load(const std::string& path) {
  return from_binary(core::read_file(path, "checkpoint"));
}

std::uint64_t campaign_digest(const std::vector<RigSpec>& specs,
                              const FleetOptions& options) {
  core::Fnv1a f;
  f.str("offramps-campaign-v2");
  // Behavior-relevant options.  Workers, checkpoint paths, stop_after and
  // save_captures_dir are excluded: they never change the report bytes.
  f.u64(options.safe_stop ? 1 : 0);
  f.u64(options.use_oracle ? 1 : 0);
  f.u64(options.channels.steps ? 1 : 0);
  f.u64(options.channels.power ? 1 : 0);
  f.u64(options.channels.acoustic ? 1 : 0);
  f.u64(options.channels.vibration ? 1 : 0);
  f.u64(options.reference_seed);
  f.u64(options.detector.ring_capacity);
  f.u64(static_cast<std::uint64_t>(options.pump.period));
  f.u64(options.pump.windows_per_slot);
  f.u64(options.supervisor.max_attempts);
  // Constants, hashed in their old places so that checkpoints written
  // while they were settings still resume: the degrade ladder (on), the
  // watchdog cadence and the first-data limit.
  f.u64(1);
  f.f64(kWatchdogPeriodS);
  f.f64(options.supervisor.stall_timeout_s);
  f.f64(kFirstDataTimeoutS);
  hash_profile(f, options.profile);

  f.u64(specs.size());
  for (const RigSpec& s : specs) {
    f.str(s.name);
    f.u64(s.seed);
    f.f64(s.cube_mm);
    f.f64(s.height_mm);
    f.str(s.sabotage.to_string());
    f.str(s.chaos.to_string());
  }
  return f.value();
}

}  // namespace offramps::svc
