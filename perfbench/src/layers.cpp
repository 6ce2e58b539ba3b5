// Per-layer ledger, measured from outside the program: each probe times
// calls into one module's public API on the workload's own objects,
// corpus and report.  Layer costs found by differencing rig
// configurations assume the layers add up; the exact event-count
// differences are reported next to the timed ones so a negative or noisy
// difference is visible.
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyzer.hpp"
#include "core/session_wire.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "svc/checkpoint.hpp"
#include "svc/ref_cache.hpp"
#include "svc/session.hpp"

namespace perfbench {

namespace core = offramps::core;
namespace host = offramps::host;
namespace svc = offramps::svc;
namespace wire = offramps::core::wire;

namespace {

using Object = std::pair<double, double>;  // cube footprint, height (mm)

offramps::gcode::Program slice(const Object& o,
                               const host::SliceProfile& profile) {
  return host::slice_cube({.size_x_mm = o.first,
                           .size_y_mm = o.first,
                           .height_mm = o.second,
                           .center_x_mm = 110.0,
                           .center_y_mm = 100.0},
                          profile);
}

std::vector<Object> objects_of(const std::vector<svc::RigSpec>& specs) {
  std::vector<Object> out;
  std::set<Object> seen;
  for (const svc::RigSpec& s : specs) {
    if (seen.insert({s.cube_mm, s.height_mm}).second) {
      out.emplace_back(s.cube_mm, s.height_mm);
    }
  }
  return out;
}

/// One bare-rig configuration: median host time of Rig::run and its
/// exact counts (which must repeat on every repetition).
struct BareRun {
  core::RouteMode route = core::RouteMode::kFpgaMitm;
  bool probes = false;
  const char* label = "";
  std::vector<double> ms{};
  std::uint64_t events = 0;
  std::uint64_t steps = 0;  // sum of |commanded steps| over the axes
  std::uint64_t uart_frames = 0;

  [[nodiscard]] double median_ms() const { return median(ms); }
};

void bare_rig(const offramps::gcode::Program& program, std::uint64_t seed,
              BareRun& run, Gate& gate) {
  host::RigOptions ro;
  ro.firmware.jitter_seed = seed;
  ro.route = run.route;
  if (run.probes) svc::attach_probes(ro, svc::ChannelSet{}, seed);
  host::Rig rig(ro);
  const auto t0 = Clock::now();
  const host::RunResult res = rig.run(program);
  run.ms.push_back(seconds_since(t0) * 1e3);
  std::uint64_t steps = 0;
  for (const std::int64_t s : res.commanded_steps) {
    steps += static_cast<std::uint64_t>(s < 0 ? -s : s);
  }
  if (run.ms.size() == 1) {
    run.events = res.events_executed;
    run.steps = steps;
    run.uart_frames = res.uart_frames_emitted;
  }
  gate.judge(res.finished && res.events_executed == run.events &&
                 steps == run.steps,
             std::string("determinism: ") + run.label +
                 " rig counts moved between repeats");
}

/// A golden reference for one object, as the fleet resolves it: from the
/// workload's cache when it has one, else from a reference print.
struct Reference {
  offramps::gcode::Program program;
  offramps::analyze::Oracle oracle;
  svc::RefEntry entry;
};

Reference resolve(const Object& o, const svc::FleetOptions& options) {
  Reference ref;
  ref.program = slice(o, options.profile);
  ref.oracle = offramps::analyze::analyze_program(ref.program).oracle;
  if (!options.cache_dir.empty()) {
    svc::RefCache cache({options.cache_dir, 0});
    if (auto hit = cache.get(svc::reference_digest(
            o.first, o.second, options.profile, options.reference_seed,
            options.channels))) {
      ref.entry = std::move(*hit);
      return ref;
    }
  }
  host::RigOptions ro;
  ro.firmware.jitter_seed = options.reference_seed;
  svc::attach_probes(ro, options.channels, options.reference_seed);
  host::Rig rig(ro);
  host::RunResult res = rig.run(ref.program);
  ref.entry = {std::move(res.capture), std::move(res.power_trace),
               std::move(res.acoustic_trace), std::move(res.vibration_trace)};
  return ref;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// One frame re-encoded through the recorder (`finish` is the decoded
/// kFinish capture, which the recorder takes as a Capture).
void re_encode(wire::SessionRecorder& rec, const wire::Frame& f,
               const core::Capture& finish) {
  switch (f.type) {
    case wire::FrameType::kHello: rec.hello(f.hello); break;
    case wire::FrameType::kTxn: rec.txn(f.txn); break;
    case wire::FrameType::kPower: rec.power(f.power_t_s, f.power_watts); break;
    case wire::FrameType::kSample:
      rec.sample(f.sample_kind, f.sample_t_s, f.sample_value);
      break;
    case wire::FrameType::kSlot: rec.slot(); break;
    case wire::FrameType::kFinish: rec.finish(finish); break;
    case wire::FrameType::kEnd: rec.end(f.end); break;
  }
}

/// A single-rig report rendering, to compare one outcome byte for byte.
std::string render(const svc::RigOutcome& outcome) {
  svc::FleetReport r;
  r.rigs.push_back(outcome);
  return r.to_json();
}

/// What every probe shares: the workload, its last untraced report, and
/// the clean rig whose object and seed the bare-rig probes use.
struct Probe {
  Workload& w;
  const svc::FleetReport& report;
  Ledger& ledger;
  Metrics& out;
  Gate& gate;
  int rig_reps;
  int codec_reps;
  std::vector<Object> objects;
  svc::RigSpec rig;  // the workload's first clean rig
  Object object;     // ...and its object
};

/// Front end: slicer, static analyzer, Flaw3D rewriters.
void frontend_layers(Probe& p) {
  const Ledger::Scope span(p.ledger, "frontend");
  const host::SliceProfile& profile = p.w.options().profile;
  std::vector<offramps::gcode::Program> programs;
  const double slice_s = median_seconds(p.codec_reps, [&] {
    programs.clear();
    for (const Object& o : p.objects) programs.push_back(slice(o, profile));
  });
  const double analyze_s = median_seconds(p.codec_reps, [&] {
    for (const auto& program : programs) {
      (void)offramps::analyze::analyze_program(program);
    }
  });
  const offramps::gcode::Program& clean = programs.front();
  const double flaw3d_s = median_seconds(p.codec_reps, [&] {
    for (const std::string& v : table2_variants()) {
      const svc::Sabotage s = svc::parse_sabotage(v);
      if (s.kind == svc::Sabotage::Kind::kReduction) {
        (void)offramps::gcode::flaw3d::apply_reduction(clean,
                                                        {.factor = s.factor});
      } else {
        (void)offramps::gcode::flaw3d::apply_relocation(
            clean, {.every_n_moves = s.every_n});
      }
    }
  });
  const auto n = static_cast<double>(p.objects.size());
  p.out.time("host.slicer.ms_per_object", slice_s * 1e3 / n, "ms");
  p.out.time("analyze.ms_per_object", analyze_s * 1e3 / n, "ms");
  p.out.time("gcode.flaw3d.ms_per_rig",
             flaw3d_s * 1e3 / static_cast<double>(table2_variants().size()),
             "ms");
}

/// Simulation layers: bare rigs (no detector), one configuration per layer
/// boundary, differenced.  Returns the full (MITM + probes) rig's median
/// host ms, the baseline of the live loop.
double sim_layers(Probe& p) {
  const offramps::gcode::Program program =
      slice(p.object, p.w.options().profile);
  // Round-robin over the configurations, so host-speed drift during the
  // probe hits each of them alike.
  BareRun direct{.route = core::RouteMode::kDirect, .label = "kDirect"};
  BareRun record{.route = core::RouteMode::kFpgaRecord,
                 .label = "kFpgaRecord"};
  BareRun mitm{.route = core::RouteMode::kFpgaMitm, .label = "kFpgaMitm"};
  BareRun full{.route = core::RouteMode::kFpgaMitm,
               .probes = true,
               .label = "kFpgaMitm+probes"};
  {
    const Ledger::Scope span(p.ledger, "sim.bare_rigs");
    for (int r = 0; r < p.rig_reps; ++r) {
      for (BareRun* run : {&direct, &record, &mitm, &full}) {
        bare_rig(program, p.rig.seed, *run, p.gate);
      }
    }
  }
  const auto events = [](const BareRun& a) {
    return static_cast<double>(a.events);
  };
  Metrics& out = p.out;
  out.count("sim.events_per_rig", events(full), "count");
  out.count("sim.events_per_step",
            events(full) / static_cast<double>(full.steps), "events/step");
  out.time("sim.ns_per_event", full.median_ms() * 1e6 / events(full), "ns");
  out.time("fw_plant.ms_per_rig", direct.median_ms(), "ms");
  out.count("fw_plant.events_per_rig", events(direct), "count");
  out.time("core.monitor.ms_per_rig",
           record.median_ms() - direct.median_ms(), "ms");
  out.count("core.monitor.events_per_rig", events(record) - events(direct),
            "count");
  out.count("core.uart_frames_per_rig",
            static_cast<double>(full.uart_frames), "count");
  out.time("core.mitm.ms_per_rig", mitm.median_ms() - record.median_ms(),
           "ms");
  out.count("core.mitm.events_per_rig", events(mitm) - events(record),
            "count");
  out.time("plant.probes.ms_per_rig", full.median_ms() - mitm.median_ms(),
           "ms");
  out.count("plant.probes.events_per_rig", events(full) - events(mitm),
            "count");

  // Scheduler queue depth, from the obs gauge of one metered rig.
  const Ledger::Scope span(p.ledger, "sim.metered_rig");
  auto& reg = offramps::obs::Registry::instance();
  reg.reset();
  offramps::obs::set_enabled(true);
  host::RigOptions ro;
  ro.firmware.jitter_seed = p.rig.seed;
  svc::attach_probes(ro, svc::ChannelSet{}, p.rig.seed);
  host::Rig rig(ro);
  (void)rig.run(program);
  offramps::obs::set_enabled(false);
  out.count("sim.queue_depth_max",
            static_cast<double>(reg.gauge("sim.scheduler.queue_depth").max()),
            "count");
  return full.median_ms();
}

/// svc live loop: the fleet's per-rig phase beyond the bare rig, the
/// fleet's own time outside every phase, and the pool's balance.
void live_layers(Probe& p, const PassStats& untraced, double bare_ms) {
  std::set<std::string> names;  // clean rigs printing the probe object
  for (const svc::RigSpec& s : p.w.specs()) {
    if (s.sabotage.kind == svc::Sabotage::Kind::kNone &&
        Object{s.cube_mm, s.height_mm} == p.object) {
      names.insert("rig/" + s.name);
    }
  }
  std::vector<double> live_ms;
  for (const svc::PhaseTiming& t : untraced.rig_phases) {
    if (names.count(t.name) != 0) live_ms.push_back(t.seconds * 1e3);
  }
  p.out.time("svc.live.ms_per_rig", median(live_ms) - bare_ms, "ms");
  std::vector<double> self_s, busy;
  const auto workers = static_cast<double>(p.w.workers());
  for (std::size_t i = 0; i < untraced.wall_s.size(); ++i) {
    const double phases = untraced.phase_sum_s[i];
    self_s.push_back(untraced.wall_s[i] - phases / workers);
    busy.push_back(phases / (workers * untraced.wall_s[i]));
  }
  p.out.time("svc.fleet.self_s", median(self_s), "s");
  p.out.time("host.pool.busy_frac", median(busy), "fraction");
}

/// Golden capture codec, reference cache and checkpoint codec.
void store_layers(Probe& p, const std::map<Object, Reference>& refs) {
  const svc::FleetOptions& options = p.w.options();
  const svc::RefEntry& golden = refs.at(p.object).entry;
  {
    const Ledger::Scope span(p.ledger, "core.capture");
    const std::vector<std::uint8_t> blob = golden.golden.to_binary();
    const double enc = median_seconds(
        p.codec_reps, [&] { (void)golden.golden.to_binary(); });
    const double dec = median_seconds(
        p.codec_reps, [&] { (void)core::Capture::from_binary(blob); });
    p.gate.judge(core::Capture::from_binary(blob).to_binary() == blob,
                 "core.capture: binary round trip changed bytes");
    p.out.time("core.capture.encode_us", enc * 1e6, "us");
    p.out.time("core.capture.decode_us", dec * 1e6, "us");
  }
  {
    const Ledger::Scope span(p.ledger, "svc.cache");
    svc::RefCache cache({p.w.work_dir() + "/probe-cache", 0});
    const std::uint64_t key = svc::reference_digest(
        p.object.first, p.object.second, options.profile,
        options.reference_seed, options.channels);
    const double put =
        median_seconds(p.codec_reps, [&] { cache.put(key, golden); });
    bool hit = true;
    const double get = median_seconds(p.codec_reps, [&] {
      const auto e = cache.get(key);
      hit = hit && e && e->golden.size() == golden.golden.size();
    });
    p.gate.judge(hit, "svc.cache: a stored reference did not read back");
    p.out.time("svc.cache.get_us", get * 1e6, "us");
    p.out.time("svc.cache.put_us", put * 1e6, "us");
  }
  const Ledger::Scope span(p.ledger, "svc.checkpoint");
  svc::Checkpoint ck;
  if (!p.w.checkpoint_path().empty()) {
    ck = svc::Checkpoint::load(p.w.checkpoint_path());
  } else {
    ck.spec_digest = svc::campaign_digest(p.w.specs(), options);
    ck.total_rigs = static_cast<std::uint32_t>(p.w.specs().size());
    for (const Object& o : p.objects) {
      const svc::RefEntry& e = refs.at(o).entry;
      ck.references.push_back(
          {e.golden, e.golden_power, e.golden_acoustic, e.golden_vibration});
    }
    for (std::size_t i = 0; i < p.report.rigs.size(); ++i) {
      ck.done.emplace_back(static_cast<std::uint32_t>(i), p.report.rigs[i]);
    }
  }
  const std::string path = p.w.work_dir() + "/probe.ckpt";
  const double save = median_seconds(p.codec_reps, [&] { ck.save(path); });
  const double load = median_seconds(
      p.codec_reps, [&] { (void)svc::Checkpoint::load(path); });
  const std::vector<std::uint8_t> bytes = ck.to_binary();
  p.gate.judge(svc::Checkpoint::load(path).to_binary() == bytes,
               "svc.checkpoint: save/load round trip changed bytes");
  p.out.time("svc.checkpoint.save_us", save * 1e6, "us");
  p.out.time("svc.checkpoint.load_us", load * 1e6, "us");
  p.out.count("svc.checkpoint.bytes", static_cast<double>(bytes.size()),
              "bytes");
}

/// Session wire codec and detector, over the workload's session corpus.
void wire_layers(Probe& p, const std::map<Object, Reference>& refs) {
  std::vector<std::vector<std::uint8_t>> corpus;
  {
    const Ledger::Scope span(p.ledger, "corpus.load");
    const std::string dir = p.w.session_corpus(p.gate);
    for (const std::string& f : wire::list_session_corpus(dir)) {
      corpus.push_back(read_file(f));
    }
  }
  const Ledger::Scope span(p.ledger, "core.wire");
  std::size_t total_bytes = 0;
  for (const auto& c : corpus) total_bytes += c.size();
  const auto sessions = static_cast<double>(corpus.size());

  // Decode once, keeping the frames (and each kFinish capture) to
  // re-encode.
  std::uint64_t slots = 0;
  std::vector<std::vector<wire::Frame>> frames(corpus.size());
  std::vector<core::Capture> finish(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    wire::FrameReader reader;
    reader.feed(corpus[i].data(), corpus[i].size(),
                [&](const wire::Frame& f) { frames[i].push_back(f); });
    reader.close();
    p.gate.judge(reader.ended() && !reader.failed() &&
                     reader.resyncs() == 0 && reader.corrupt_txns() == 0,
                 "core.wire: recorded session " + std::to_string(i) +
                     " did not decode cleanly");
    for (const wire::Frame& f : frames[i]) {
      if (f.type == wire::FrameType::kSlot) ++slots;
      if (f.type == wire::FrameType::kFinish) {
        finish[i] = core::Capture::from_binary(f.finish);
      }
    }
  }
  const double decode_s = median_seconds(p.codec_reps, [&] {
    for (const auto& bytes : corpus) {
      wire::FrameReader reader;
      reader.feed(bytes.data(), bytes.size(), [](const wire::Frame&) {});
      reader.close();
    }
  });
  std::vector<std::vector<std::uint8_t>> encoded(corpus.size());
  const double encode_s = median_seconds(p.codec_reps, [&] {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      wire::SessionRecorder rec;
      for (const wire::Frame& f : frames[i]) re_encode(rec, f, finish[i]);
      encoded[i] = rec.bytes();
    }
  });
  p.gate.judge(encoded == corpus,
               "core.wire: re-encoding the decoded corpus changed bytes");
  const auto mb = static_cast<double>(total_bytes) / 1e6;
  p.out.time("core.wire.decode_mb_per_s", mb / decode_s, "MB/s");
  p.out.time("core.wire.encode_mb_per_s", mb / encode_s, "MB/s");
  p.out.count("core.wire.bytes_per_rig",
              static_cast<double>(total_bytes) / sessions, "bytes");
  p.out.count("svc.pump.slots_per_rig",
              static_cast<double>(slots) / sessions, "count");

  // Detector: RigSession::feed over the in-memory sessions, minus the
  // decode-only time of the same bytes, per window judged.  References
  // are armed exactly as the daemon's resolver arms them.
  const svc::FleetOptions& options = p.w.options();
  svc::SessionOptions sopts;
  sopts.detector = options.detector;
  sopts.detector.channels = options.channels;
  sopts.windows_per_slot = options.pump.windows_per_slot;
  const auto refs_fn = [&](const wire::SessionHello& h) {
    const Reference& r = refs.at({h.cube_mm, h.height_mm});
    const svc::RefEntry& e = r.entry;
    svc::SessionRefs s;
    s.golden = &e.golden;
    if (options.use_oracle && r.oracle.counters_armed) s.oracle = &r.oracle;
    if (options.channels.power && !e.golden_power.empty()) {
      s.golden_power = &e.golden_power;
    }
    if (options.channels.acoustic && !e.golden_acoustic.empty()) {
      s.golden_acoustic = &e.golden_acoustic;
    }
    if (options.channels.vibration && !e.golden_vibration.empty()) {
      s.golden_vibration = &e.golden_vibration;
    }
    return s;
  };
  std::vector<svc::RigOutcome> outcomes(corpus.size());
  std::vector<std::uint32_t> index(corpus.size());
  const double feed_s = median_seconds(p.codec_reps, [&] {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      svc::RigSession session(sopts, refs_fn);
      session.feed(corpus[i].data(), corpus[i].size());
      session.close();
      outcomes[i] = session.outcome();
      index[i] = session.hello().rig_index;
    }
  });
  std::uint64_t windows = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    windows += outcomes[i].detector.windows_processed;
    const bool same =
        index[i] < p.report.rigs.size() &&
        render(outcomes[i]) == render(p.report.rigs[index[i]]);
    p.gate.judge(same, "svc.detector: session " + std::to_string(i) +
                           " re-judged differently from the report");
  }
  p.out.time("svc.detector.us_per_window",
             (feed_s - decode_s) * 1e6 / static_cast<double>(windows), "us");
}

}  // namespace

void measure_layers(Workload& w, const svc::FleetReport& report,
                    const PassStats& untraced, bool tiny, Ledger& ledger,
                    Metrics& out, Gate& gate) {
  Probe p{.w = w,
          .report = report,
          .ledger = ledger,
          .out = out,
          .gate = gate,
          .rig_reps = tiny ? 1 : 7,
          .codec_reps = tiny ? 2 : 15,
          .objects = objects_of(w.specs()),
          .rig = w.specs().front(),
          .object = {}};
  for (const svc::RigSpec& s : w.specs()) {
    if (s.sabotage.kind == svc::Sabotage::Kind::kNone) {
      p.rig = s;
      break;
    }
  }
  p.object = {p.rig.cube_mm, p.rig.height_mm};

  frontend_layers(p);
  live_layers(p, untraced, sim_layers(p));
  std::map<Object, Reference> refs;
  {
    const Ledger::Scope span(ledger, "svc.references");
    for (const Object& o : p.objects) refs.emplace(o, resolve(o, w.options()));
  }
  store_layers(p, refs);
  wire_layers(p, refs);

  std::uint64_t windows = 0;
  for (const svc::RigOutcome& r : report.rigs) {
    windows += r.detector.windows_processed;
  }
  out.count("svc.detector.windows_per_rig",
            static_cast<double>(windows) /
                static_cast<double>(report.rigs.size()),
            "count");
}

}  // namespace perfbench
