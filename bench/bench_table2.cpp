// Experiment E2 - paper Table II: detection of the eight Flaw3D Trojans.
//
// A golden capture is taken from a clean print, then each Table II test
// case mutates the g-code (reduction x{0.5, 0.85, 0.9, 0.98}; relocation
// every {5, 10, 20, 100} moves), prints on the same stack with a
// different jitter seed, and runs the detector.  The paper detected all
// eight; a known-good reprint control verifies the 5% margin holds.
#include <cstdio>

#include "common.hpp"
#include "detect/compare.hpp"
#include "gcode/flaw3d.hpp"

using namespace offramps;

int main(int argc, char** argv) {
  const gcode::Program object = bench::standard_cube(3.0);
  host::ParallelRunner pool(bench::parse_jobs(argc, argv));
  bench::Stopwatch clock;

  bench::heading("Table II: Flaw3D Trojan detection");
  std::printf("capturing golden reference print (%zu worker(s))...\n",
              pool.workers());
  host::RunResult golden = bench::run_print(object, {}, /*seed=*/1);
  std::printf("golden: %zu transactions, final counts X=%lld Y=%lld Z=%lld "
              "E=%lld\n\n",
              golden.capture.size(),
              static_cast<long long>(golden.capture.final_counts[0]),
              static_cast<long long>(golden.capture.final_counts[1]),
              static_cast<long long>(golden.capture.final_counts[2]),
              static_cast<long long>(golden.capture.final_counts[3]));

  std::printf("%-10s %-11s %-19s %-9s %-12s %-10s\n", "Test Case", "Type",
              "Modification Value", "Detected", "#Mismatch", "Max diff");
  bench::rule();

  struct Case {
    int id;
    const char* type;
    double value;
  };
  const Case cases[] = {
      {1, "Reduction", 0.5},  {2, "Reduction", 0.85},
      {3, "Reduction", 0.9},  {4, "Reduction", 0.98},
      {5, "Relocation", 5},   {6, "Relocation", 10},
      {7, "Relocation", 20},  {8, "Relocation", 100},
  };

  // Each test case (and the known-good control, appended as a ninth job)
  // mutates its own copy of the program and prints on a fresh rig --
  // independent jobs, fanned out over the pool, reported in case order.
  struct CaseOut {
    detect::Report rep;
    std::uint64_t events = 0;
  };
  constexpr std::size_t kCases = sizeof(cases) / sizeof(cases[0]);
  const std::vector<CaseOut> outs =
      pool.map<CaseOut>(kCases + 1, [&](std::size_t i) {
        host::RunResult r;
        if (i == kCases) {  // control: clean reprint, different seed
          r = bench::run_print(object, {}, /*seed=*/777);
        } else {
          const Case& c = cases[i];
          gcode::Program mutated;
          if (std::string(c.type) == "Reduction") {
            mutated =
                gcode::flaw3d::apply_reduction(object, {.factor = c.value});
          } else {
            mutated = gcode::flaw3d::apply_relocation(
                object,
                {.every_n_moves = static_cast<std::uint32_t>(c.value),
                 .take_fraction = 0.15});
          }
          r = bench::run_print(mutated, {}, /*seed=*/100 + c.id);
        }
        return CaseOut{detect::compare(golden.capture, r.capture),
                       r.events_executed};
      });

  int detected_count = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    const Case& c = cases[i];
    const detect::Report& rep = outs[i].rep;
    if (rep.trojan_likely) ++detected_count;
    std::printf("%-10d %-11s %-19g %-9s %-12zu %8.2f%%\n", c.id, c.type,
                c.value, rep.trojan_likely ? "yes" : "NO",
                rep.mismatch_count(), rep.largest_percent);
  }
  bench::rule();

  // Control: a known-good reprint with a different seed must NOT trip.
  const detect::Report& control = outs[kCases].rep;
  std::printf("%-10s %-11s %-19s %-9s %-12zu %8.2f%%\n", "control", "None",
              "known-good reprint",
              control.trojan_likely ? "FALSE POSITIVE" : "no",
              control.mismatch_count(), control.largest_percent);

  std::printf("\nDetected %d / 8 Trojans (paper: 8 / 8); control %s\n",
              detected_count,
              control.trojan_likely ? "FALSE POSITIVE" : "clean");

  const double wall_s = clock.seconds();
  std::uint64_t total_events = golden.events_executed;
  for (const CaseOut& out : outs) total_events += out.events;
  bench::BenchJson json("table2");
  json.add("jobs", pool.workers());
  json.add("cases", kCases);
  json.add("detected", static_cast<std::uint64_t>(detected_count));
  json.add("wall_seconds", wall_s);
  json.add("scheduler_events", total_events);
  json.add("events_per_second",
           wall_s > 0.0 ? static_cast<double>(total_events) / wall_s : 0.0);
  json.write();
  return (detected_count == 8 && !control.trojan_likely) ? 0 : 1;
}
