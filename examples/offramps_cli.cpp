// offramps_cli: the whole platform behind one command-line tool.
//
//   offramps_cli print   [options]           print an object, save capture
//   offramps_cli attack  --trojan T2 [...]   print under a Trojan
//   offramps_cli detect  --golden A.csv --suspect B.csv [--margin P]
//   offramps_cli goldenfree --capture A.csv
//   offramps_cli reconstruct --capture A.csv [--layer N]
//
// print/attack options:
//   --object cube|square|cylinder   (default cube)
//   --size MM --height MM           (default 10 x 3)
//   --seed N                        firmware time-noise seed
//   --route mitm|record|direct      board jumpers (default mitm)
//   --reduce FACTOR                 Flaw3D-mutate the g-code first
//   --trojan T1..T10                arm one fabric Trojan (attack needs it)
//   --capture FILE                  write the capture CSV
//   --vcd FILE                      write a waveform of the print start
//
// Example session (a firmware-level attack, visible in the capture):
//   offramps_cli print  --capture golden.csv --seed 1
//   offramps_cli print  --reduce 0.9 --capture suspect.csv --seed 2
//   offramps_cli detect --golden golden.csv --suspect suspect.csv
//
// Signal-level attacks (attack --trojan T1..T10) damage the part but -
// as the paper notes - happen downstream of the taps, so their captures
// compare clean; inspect the printed part metrics instead.
//
// Exit codes: 0 clean/completed, 1 Trojan likely, print killed or run
// error, 2 usage error.  A flag the mode does not read, or an unknown
// mode, route, object or trojan, is a usage error reported before the
// simulation starts.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "detect/golden_free.hpp"
#include "detect/reconstruct.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "sim/vcd.hpp"

using namespace offramps;

namespace {

using Flags = std::map<std::string, std::string>;

/// Parses `--key [value]` pairs; any key outside `known` is a usage error.
Flags parse_flags(int argc, char** argv, int first,
                  const std::set<std::string>& known) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", key.c_str());
      std::exit(2);
    }
    key = key.substr(2);
    if (known.count(key) == 0) {
      std::string names;
      for (const std::string& k : known) names += " --" + k;
      std::fprintf(stderr, "unknown flag '--%s' (this mode takes:%s)\n",
                   key.c_str(), names.c_str());
      std::exit(2);
    }
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "1";
    }
  }
  return flags;
}

std::string flag(const Flags& f, const std::string& key,
                 const std::string& fallback) {
  const auto it = f.find(key);
  return it == f.end() ? fallback : it->second;
}

gcode::Program build_object(const Flags& flags) {
  const std::string object = flag(flags, "object", "cube");
  const double size = std::atof(flag(flags, "size", "10").c_str());
  const double height = std::atof(flag(flags, "height", "3").c_str());
  host::SliceProfile profile;
  if (object == "cube") {
    return host::slice_cube({.size_x_mm = size, .size_y_mm = size,
                             .height_mm = height, .center_x_mm = 110,
                             .center_y_mm = 100},
                            profile);
  }
  if (object == "square") {
    return host::slice_square({.size_mm = size, .height_mm = height,
                               .center_x_mm = 110, .center_y_mm = 100},
                              profile);
  }
  if (object == "cylinder") {
    return host::slice_cylinder_arcs({.diameter_mm = size,
                                      .height_mm = height, .facets = 0,
                                      .center_x_mm = 110,
                                      .center_y_mm = 100},
                                     profile);
  }
  std::fprintf(stderr, "unknown object '%s'\n", object.c_str());
  std::exit(2);
}

core::RouteMode parse_route(const std::string& route) {
  if (route == "mitm") return core::RouteMode::kFpgaMitm;
  if (route == "record") return core::RouteMode::kFpgaRecord;
  if (route == "direct") return core::RouteMode::kDirect;
  std::fprintf(stderr, "unknown route '%s' (mitm|record|direct)\n",
               route.c_str());
  std::exit(2);
}

core::TrojanSuiteConfig build_trojans(const Flags& flags) {
  core::TrojanSuiteConfig cfg;
  const std::string t = flag(flags, "trojan", "");
  if (t.empty()) return cfg;
  if (t == "T1") cfg.t1 = core::T1Config{};
  else if (t == "T2") cfg.t2 = core::T2Config{};
  else if (t == "T3") cfg.t3 = core::T3Config{};
  else if (t == "T4") cfg.t4 = core::T4Config{};
  else if (t == "T5") cfg.t5 = core::T5Config{};
  else if (t == "T6") cfg.t6 = core::T6Config{};
  else if (t == "T7") cfg.t7 = core::T7Config{};
  else if (t == "T8") cfg.t8 = core::T8Config{};
  else if (t == "T9") cfg.t9 = core::T9Config{};
  else if (t == "T10") cfg.t10 = core::T10Config{};
  else {
    std::fprintf(stderr, "unknown trojan '%s' (T1..T10)\n", t.c_str());
    std::exit(2);
  }
  return cfg;
}

core::Capture load_capture(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return core::Capture::from_csv(ss.str(), path);
}

void save_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(),
               text.size());
}

int run_print(const Flags& flags) {
  host::RigOptions options;
  options.firmware.jitter_seed =
      static_cast<std::uint64_t>(std::atoll(flag(flags, "seed", "1").c_str()));
  options.route = parse_route(flag(flags, "route", "mitm"));
  options.trojans = build_trojans(flags);
  host::Rig rig(options);

  std::unique_ptr<sim::VcdRecorder> vcd;
  if (flags.count("vcd") != 0) {
    vcd = std::make_unique<sim::VcdRecorder>(rig.scheduler());
    for (const auto axis : sim::kAllAxes) {
      vcd->add(rig.board().arduino_side().step(axis));
      vcd->add(rig.board().arduino_side().dir(axis));
    }
    vcd->add(rig.board().arduino_side().wire(sim::Pin::kHotendHeat));
  }

  gcode::Program program = build_object(flags);
  if (flags.count("reduce") != 0) {
    program = gcode::flaw3d::apply_reduction(
        program, {.factor = std::atof(flags.at("reduce").c_str())});
    std::fprintf(stderr, "g-code mutated: Flaw3D reduction x%s\n",
                 flags.at("reduce").c_str());
  }
  const host::RunResult r = rig.run(program);
  std::printf("outcome:      %s\n",
              r.finished ? "completed"
                         : ("KILLED: " + r.kill_reason).c_str());
  std::printf("duration:     %.1f simulated s (%llu events)\n",
              r.sim_seconds,
              static_cast<unsigned long long>(r.events_executed));
  std::printf("capture:      %zu transactions, finals X=%lld Y=%lld "
              "Z=%lld E=%lld\n",
              r.capture.size(),
              static_cast<long long>(r.capture.final_counts[0]),
              static_cast<long long>(r.capture.final_counts[1]),
              static_cast<long long>(r.capture.final_counts[2]),
              static_cast<long long>(r.capture.final_counts[3]));
  std::printf("part:         %zu layers, %.1f x %.1f mm, %.1f mm filament, "
              "flow %.3f\n",
              r.part.layer_count, r.part.bbox_width_mm,
              r.part.bbox_depth_mm, r.part.total_filament_mm,
              r.flow_ratio());
  std::printf("geometry:     layer shift %.3f mm, Z spacing %.3f mm, "
              "first layer %.3f mm\n",
              r.part.max_layer_shift_mm, r.part.max_z_spacing_mm,
              r.part.first_layer_z_mm);
  std::printf("machine:      hotend peak %.1f C, mean fan %.0f rpm, "
              "dropped steps %llu\n",
              r.hotend_peak_c, r.mean_fan_rpm,
              static_cast<unsigned long long>(
                  r.motor_dropped_steps[0] + r.motor_dropped_steps[1] +
                  r.motor_dropped_steps[2] + r.motor_dropped_steps[3]));

  if (flags.count("capture") != 0) {
    save_text(flags.at("capture"), r.capture.to_csv());
  }
  if (vcd) save_text(flags.at("vcd"), vcd->render());
  return r.finished ? 0 : 1;
}

int run_attack(const Flags& flags) {
  if (flags.count("trojan") == 0) {
    std::fprintf(stderr, "attack needs --trojan T1..T10\n");
    return 2;
  }
  return run_print(flags);
}

int run_detect(const Flags& flags) {
  if (flags.count("golden") == 0 || flags.count("suspect") == 0) {
    std::fprintf(stderr, "detect needs --golden and --suspect\n");
    return 2;
  }
  const core::Capture golden = load_capture(flags.at("golden"));
  const core::Capture suspect = load_capture(flags.at("suspect"));
  detect::CompareOptions options;
  options.margin_pct = std::atof(flag(flags, "margin", "5").c_str());
  options.window_slack = static_cast<std::uint32_t>(
      std::atoi(flag(flags, "slack", "0").c_str()));
  const detect::Report report = detect::compare(golden, suspect, options);
  std::fputs(report.to_string().c_str(), stdout);
  return report.trojan_likely ? 1 : 0;
}

int run_goldenfree(const Flags& flags) {
  if (flags.count("capture") == 0) {
    std::fprintf(stderr, "goldenfree needs --capture\n");
    return 2;
  }
  const detect::GoldenFreeReport report =
      detect::analyze_golden_free(load_capture(flags.at("capture")));
  std::fputs(report.to_string().c_str(), stdout);
  return report.trojan_likely ? 1 : 0;
}

int run_reconstruct(const Flags& flags) {
  if (flags.count("capture") == 0) {
    std::fprintf(stderr, "reconstruct needs --capture\n");
    return 2;
  }
  const detect::ReconstructedPart part =
      detect::reconstruct_part(load_capture(flags.at("capture")));
  std::printf("%zu layers, %.2f mm tall, footprint %.1f x %.1f mm, "
              "%.1f mm filament\n",
              part.layers.size(), part.height_mm, part.bbox_width_mm,
              part.bbox_depth_mm, part.total_filament_mm);
  if (!part.layers.empty()) {
    const auto layer = static_cast<std::size_t>(std::atoll(
        flag(flags, "layer",
             std::to_string(part.layers.size() / 2))
            .c_str()));
    std::printf("layer %zu:\n%s", layer,
                part.ascii_layer(layer, 48).c_str());
  }
  return 0;
}

struct Mode {
  std::string name;
  int (*run)(const Flags&);
  std::set<std::string> flags;  // every --flag the mode reads
};

const Mode* find_mode(const std::string& name) {
  static const std::set<std::string> kPrintFlags = {
      "object", "size",   "height",  "seed", "route",
      "reduce", "trojan", "capture", "vcd"};
  static const Mode kModes[] = {
      {"print", run_print, kPrintFlags},
      {"attack", run_attack, kPrintFlags},
      {"detect", run_detect, {"golden", "suspect", "margin", "slack"}},
      {"goldenfree", run_goldenfree, {"capture"}},
      {"reconstruct", run_reconstruct, {"capture", "layer"}},
  };
  for (const Mode& mode : kModes) {
    if (mode.name == name) return &mode;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: %s {print|attack|detect|goldenfree|reconstruct} "
        "[--flags]\n",
        argv[0]);
    return 2;
  }
  const Mode* mode = find_mode(argv[1]);
  if (mode == nullptr) {
    std::fprintf(stderr, "unknown mode '%s'\n", argv[1]);
    return 2;
  }
  const Flags flags = parse_flags(argc, argv, 2, mode->flags);
  try {
    return mode->run(flags);
  } catch (const offramps::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
