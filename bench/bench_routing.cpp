// Experiment E6 - paper Figure 3: the three signal-path configurations.
//
//   (a) Direct: straight jumpers, FPGA out of circuit - the stock
//       Arduino+RAMPS stack.
//   (b) MITM: all nets through the fabric - modifiable.
//   (c) Record: straight jumpers with FPGA taps - lossless monitoring.
//
// The same print runs under each configuration; the experiment verifies
// bypass equivalence, record losslessness, and MITM modifiability.
#include <cstdio>

#include "common.hpp"
#include "core/trojans.hpp"

using namespace offramps;

int main(int argc, char** argv) {
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: bench_routing (takes no arguments)\n");
  const auto program = bench::standard_cube(3.0);

  bench::heading("Fig. 3 signal path configurations");
  std::printf("%-28s %-10s %-13s %-22s %-12s\n", "configuration", "finished",
              "capture txns", "motor steps X/E", "flow ratio");
  bench::rule();

  const host::RunResult direct =
      bench::run_print(program, {}, 1, core::RouteMode::kDirect);
  const host::RunResult record =
      bench::run_print(program, {}, 1, core::RouteMode::kFpgaRecord);
  const host::RunResult mitm =
      bench::run_print(program, {}, 1, core::RouteMode::kFpgaMitm);
  // MITM with a Trojan armed: the configuration that can modify.
  core::TrojanSuiteConfig t2;
  t2.t2 = core::T2Config{.keep_ratio = 0.5};
  const host::RunResult attacked =
      bench::run_print(program, t2, 1, core::RouteMode::kFpgaMitm);

  const auto row = [](const char* name, const host::RunResult& r) {
    std::printf("%-28s %-10s %-13zu %10lld/%-11lld %-12.3f\n", name,
                r.finished ? "yes" : "no", r.capture.size(),
                static_cast<long long>(r.motor_steps[0]),
                static_cast<long long>(r.motor_steps[3]), r.flow_ratio());
  };
  row("3a direct (bypass)", direct);
  row("3c record (tap)", record);
  row("3b MITM (benign)", mitm);
  row("3b MITM + T2 Trojan", attacked);
  bench::rule();

  const bool bypass_equiv = direct.motor_steps == mitm.motor_steps;
  // Lossless: the record-mode tap captures exactly the counts the MITM
  // configuration captures for the same commanded stream.
  const bool record_lossless =
      record.capture.final_counts == mitm.capture.final_counts &&
      !record.capture.empty();
  std::printf(
      "\nchecks:\n"
      " - direct produces no capture (FPGA out of circuit): %s\n"
      " - benign MITM is motion-equivalent to direct: %s\n"
      " - record-mode capture equals true motor totals (lossless): %s\n"
      " - only MITM can modify (T2 halves flow): %s\n",
      direct.capture.empty() ? "yes" : "NO",
      bypass_equiv ? "yes" : "NO", record_lossless ? "yes" : "NO",
      (attacked.flow_ratio() < 0.6 && mitm.flow_ratio() > 0.99) ? "yes"
                                                                : "NO");
  const bool ok = direct.capture.empty() && bypass_equiv &&
                  record_lossless && attacked.flow_ratio() < 0.6;
  return ok ? 0 : 1;
}
