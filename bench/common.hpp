// Shared helpers for the experiment harness binaries: the standard test
// object (a calibration cube, as used for the paper's Table I prints),
// print runners, table formatting, wall-clock timing, and the
// machine-readable BENCH_<name>.json artifact every harness emits.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "detect/compare.hpp"
#include "gcode/stats.hpp"
#include "host/parallel_runner.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "obs/json.hpp"

// Sanitizer instrumentation slows hot paths 2-20x and not uniformly, so
// perf thresholds measured on plain builds are meaningless under it.
// Gated benches check built_with_sanitizers() and downgrade enforcement
// to report-only (correctness gates - determinism digests, byte
// identity - still enforce everywhere).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OFFRAMPS_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define OFFRAMPS_BENCH_SANITIZED 1
#endif
#endif
#ifndef OFFRAMPS_BENCH_SANITIZED
#define OFFRAMPS_BENCH_SANITIZED 0
#endif

namespace offramps::bench {

/// True when this binary is instrumented by ASan/TSan/MSan (see above).
inline constexpr bool built_with_sanitizers() {
  return OFFRAMPS_BENCH_SANITIZED != 0;
}

/// The standard experiment workload: a small calibration cube.
inline gcode::Program standard_cube(double height_mm = 3.0) {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 10.0,
                      .size_y_mm = 10.0,
                      .height_mm = height_mm,
                      .center_x_mm = 110.0,
                      .center_y_mm = 100.0};
  return host::slice_cube(cube, profile);
}

/// Prints one golden/Trojaned run with the given options.
inline host::RunResult run_print(const gcode::Program& program,
                                 core::TrojanSuiteConfig trojans = {},
                                 std::uint64_t seed = 1,
                                 core::RouteMode route =
                                     core::RouteMode::kFpgaMitm) {
  host::RigOptions options;
  options.trojans = std::move(trojans);
  options.firmware.jitter_seed = seed;
  options.route = route;
  host::Rig rig(options);
  return rig.run(program);
}

/// Section header in the style of the experiment logs.
inline void heading(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void rule() {
  std::printf("-------------------------------------------------------------"
              "-------------------\n");
}

/// Wall-clock stopwatch for harness phases.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Worker count for a harness run: `--jobs N` / `-j N` on the command
/// line wins, else OFFRAMPS_JOBS / hardware concurrency via
/// ParallelRunner::default_workers().  Any other argument, or a value
/// that is not a whole number in [1, 1000000], exits 2 before the
/// harness runs.
inline std::size_t parse_jobs(int argc, char** argv) {
  std::size_t jobs = 0;
  core::cli::Parser args;
  args.count("--jobs", jobs, 1, 1'000'000).alias("-j");
  args.parse_or_exit(argc, argv, 1,
                     "options: --jobs N, -j N  worker threads (default: "
                     "OFFRAMPS_JOBS or cores)\n");
  return jobs != 0 ? jobs : host::ParallelRunner::default_workers();
}

/// Accumulates key/value pairs and writes `BENCH_<name>.json` so CI and
/// dashboards can track harness results without scraping stdout.  Every
/// artifact records the machine's hardware concurrency: speedups measured
/// on a 1-core host are honest 1x numbers, and the field says why.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    add("bench", name_);
    add("hardware_concurrency",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  }

  void add(const std::string& key, const std::string& value) {
    std::string quoted;
    obs::append_json_string(quoted, value);
    entries_.emplace_back(key, std::move(quoted));
  }
  void add(const std::string& key, const char* value) {
    add(key, std::string(value));
  }
  void add(const std::string& key, double value) {
    entries_.emplace_back(key, obs::format_general(value));
  }
  void add(const std::string& key, std::uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, int value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }

  /// Writes BENCH_<name>.json in the working directory and reports the
  /// path on stdout.  Returns false (after printing why) if the file
  /// cannot be written; harnesses treat that as non-fatal.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::string doc = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      doc += "  ";
      obs::append_json_string(doc, entries_[i].first);
      doc += ": " + entries_[i].second +
             (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    doc += "}\n";
    try {
      core::cli::write_text(path, doc, "BenchJson");
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return false;
    }
    std::printf("[bench] wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace offramps::bench
