// offramps_cli: the whole platform behind one command-line tool.
//
//   offramps_cli print   [options]           print an object, save capture
//   offramps_cli attack  --trojan T2 [...]   print under a Trojan
//   offramps_cli detect  --golden A.csv --suspect B.csv [--margin P]
//   offramps_cli goldenfree --capture A.csv
//   offramps_cli reconstruct --capture A.csv [--layer N]
//
// print/attack print an object (default a 10 x 3 mm cube, seed 1, MITM
// route), optionally Flaw3D-mutated (--reduce) or under one fabric
// Trojan (--trojan), and write its capture CSV (--capture) and a
// waveform of the print start (--vcd); kUsage lists every flag.
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
// Every valued flag is spelled `--flag VALUE` or `--flag=VALUE`.
//
// Exit codes: 0 clean/completed, 1 Trojan likely, print killed or run
// error (a --capture or --vcd path that cannot be written included),
// 2 usage error.  A flag the mode does not read, a missing, malformed or
// out-of-range value, or an unknown mode, route, object or trojan, is a
// usage error reported before the simulation starts.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/cli.hpp"
#include "detect/compare.hpp"
#include "detect/golden_free.hpp"
#include "detect/reconstruct.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "sim/vcd.hpp"

using namespace offramps;

namespace {

constexpr const char* kUsage =
    "usage: offramps_cli MODE [--flag VALUE | --flag=VALUE]...\n"
    "  print|attack  [--object cube|square|cylinder] [--size MM]\n"
    "                [--height MM] [--seed N] [--route mitm|record|direct]\n"
    "                [--reduce FACTOR] [--trojan T1..T10] [--capture FILE]\n"
    "                [--vcd FILE]           (attack needs --trojan)\n"
    "  detect        --golden FILE --suspect FILE [--margin PCT] [--slack N]\n"
    "  goldenfree    --capture FILE\n"
    "  reconstruct   --capture FILE [--layer N]\n";

/// Every flag any mode reads, at its default.
struct Args {
  std::string object = "cube";
  double size_mm = 10.0;
  double height_mm = 3.0;
  std::uint64_t seed = 1;
  core::RouteMode route = core::RouteMode::kFpgaMitm;
  double reduce = 1.0;
  core::TrojanSuiteConfig trojans;
  std::string capture;
  std::string vcd;
  std::string golden;
  std::string suspect;
  double margin_pct = 5.0;
  std::uint32_t slack = 0;
  std::size_t layer = 0;
};

core::RouteMode parse_route(const std::string& route) {
  if (route == "mitm") return core::RouteMode::kFpgaMitm;
  if (route == "record") return core::RouteMode::kFpgaRecord;
  if (route == "direct") return core::RouteMode::kDirect;
  throw Error("want mitm|record|direct");
}

core::TrojanSuiteConfig parse_trojan(const std::string& t) {
  core::TrojanSuiteConfig cfg;
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
  else throw Error("want T1..T10");
  return cfg;
}

/// The print and attack flags; attack must arm a Trojan.
void print_flags(core::cli::Parser& p, Args& a, bool attack) {
  p.value("--object",
          [&a](const std::string& v) {
            if (v != "cube" && v != "square" && v != "cylinder") {
              throw Error("want cube|square|cylinder");
            }
            a.object = v;
          })
      .positive("--size", a.size_mm, 210.0)
      .positive("--height", a.height_mm, 210.0)
      .count("--seed", a.seed, 0)
      .value("--route",
             [&a](const std::string& v) { a.route = parse_route(v); })
      .positive("--reduce", a.reduce, 1.0)
      .text("--capture", a.capture)
      .text("--vcd", a.vcd);
  p.value("--trojan",
          [&a](const std::string& v) { a.trojans = parse_trojan(v); });
  if (attack) p.required();
}

gcode::Program build_object(const Args& a) {
  host::SliceProfile profile;
  if (a.object == "square") {
    return host::slice_square({.size_mm = a.size_mm, .height_mm = a.height_mm,
                               .center_x_mm = 110, .center_y_mm = 100},
                              profile);
  }
  if (a.object == "cylinder") {
    return host::slice_cylinder_arcs({.diameter_mm = a.size_mm,
                                      .height_mm = a.height_mm, .facets = 0,
                                      .center_x_mm = 110,
                                      .center_y_mm = 100},
                                     profile);
  }
  return host::slice_cube({.size_x_mm = a.size_mm, .size_y_mm = a.size_mm,
                           .height_mm = a.height_mm, .center_x_mm = 110,
                           .center_y_mm = 100},
                          profile);
}

/// Reads a capture CSV; an unreadable file is a usage error (exit 2).
core::Capture load_capture(const std::string& path) {
  std::string text;
  try {
    text = core::cli::read_text(path, "offramps_cli");
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  return core::Capture::from_csv(text, path);
}

/// Writes a whole file; a path that cannot be written throws (exit 1).
void save_text(const std::string& path, const std::string& text) {
  core::cli::write_text(path, text, "offramps_cli");
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(),
               text.size());
}

int run_print(const Args& a, const core::cli::Parser& flags) {
  host::RigOptions options;
  options.firmware.jitter_seed = a.seed;
  options.route = a.route;
  options.trojans = a.trojans;
  host::Rig rig(options);

  std::unique_ptr<sim::VcdRecorder> vcd;
  if (flags.given("--vcd")) {
    vcd = std::make_unique<sim::VcdRecorder>(rig.scheduler());
    for (const auto axis : sim::kAllAxes) {
      vcd->add(rig.board().arduino_side().step(axis));
      vcd->add(rig.board().arduino_side().dir(axis));
    }
    vcd->add(rig.board().arduino_side().wire(sim::Pin::kHotendHeat));
  }

  gcode::Program program = build_object(a);
  if (flags.given("--reduce")) {
    program = gcode::flaw3d::apply_reduction(program, {.factor = a.reduce});
    std::fprintf(stderr, "g-code mutated: Flaw3D reduction x%g\n", a.reduce);
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

  if (flags.given("--capture")) save_text(a.capture, r.capture.to_csv());
  if (vcd) save_text(a.vcd, vcd->render());
  return r.finished ? 0 : 1;
}

int run_detect(const Args& a, const core::cli::Parser&) {
  const core::Capture golden = load_capture(a.golden);
  const core::Capture suspect = load_capture(a.suspect);
  detect::CompareOptions options;
  options.margin_pct = a.margin_pct;
  options.window_slack = a.slack;
  const detect::Report report = detect::compare(golden, suspect, options);
  std::fputs(report.to_string().c_str(), stdout);
  return report.trojan_likely ? 1 : 0;
}

int run_goldenfree(const Args& a, const core::cli::Parser&) {
  const detect::GoldenFreeReport report =
      detect::analyze_golden_free(load_capture(a.capture));
  std::fputs(report.to_string().c_str(), stdout);
  return report.trojan_likely ? 1 : 0;
}

int run_reconstruct(const Args& a, const core::cli::Parser& flags) {
  const detect::ReconstructedPart part =
      detect::reconstruct_part(load_capture(a.capture));
  std::printf("%zu layers, %.2f mm tall, footprint %.1f x %.1f mm, "
              "%.1f mm filament\n",
              part.layers.size(), part.height_mm, part.bbox_width_mm,
              part.bbox_depth_mm, part.total_filament_mm);
  if (!part.layers.empty()) {
    const std::size_t layer =
        flags.given("--layer") ? a.layer : part.layers.size() / 2;
    std::printf("layer %zu:\n%s", layer,
                part.ascii_layer(layer, 48).c_str());
  }
  return 0;
}

struct Mode {
  const char* name;
  int (*run)(const Args&, const core::cli::Parser&);
  void (*flags)(core::cli::Parser&, Args&);  // every flag the mode reads
};

constexpr Mode kModes[] = {
    {"print", run_print,
     [](core::cli::Parser& p, Args& a) { print_flags(p, a, false); }},
    {"attack", run_print,
     [](core::cli::Parser& p, Args& a) { print_flags(p, a, true); }},
    {"detect", run_detect,
     [](core::cli::Parser& p, Args& a) {
       p.text("--golden", a.golden).required()
           .text("--suspect", a.suspect).required()
           .number("--margin", a.margin_pct, 0.0, 100.0)
           .count("--slack", a.slack, 0);
     }},
    {"goldenfree", run_goldenfree,
     [](core::cli::Parser& p, Args& a) {
       p.text("--capture", a.capture).required();
     }},
    {"reconstruct", run_reconstruct,
     [](core::cli::Parser& p, Args& a) {
       p.text("--capture", a.capture).required().count("--layer", a.layer, 0);
     }},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  for (const Mode& mode : kModes) {
    if (name != mode.name) continue;
    Args args;
    core::cli::Parser flags;
    mode.flags(flags, args);
    flags.parse_or_exit(argc, argv, 2, kUsage);
    try {
      return mode.run(args, flags);
    } catch (const offramps::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "unknown mode '%s'\n%s", name.c_str(), kUsage);
  return 2;
}
