// Fault-injection overhead proof: the injector's hooks (the fault branch
// in Wire::set, the analog transform pointer, the frame-fault check in
// the UART reporter, the scheduler time-warp slot) must cost a clean
// print essentially nothing.
//
// Three configurations print the same cube and are wall-clock timed:
//   baseline   - no faults configured at all (the everyday path)
//   armed-noop - every fault family armed at zero intensity (hooks
//                engaged, faults never fire: the campaign control cell)
//   hot-uart   - a frame fault installed but out of window (the one
//                configuration that pays the frame encode/decode detour)
//
// Pass criterion (the ISSUE's bar): armed-noop within 2% of baseline.
// Each configuration runs several times and takes the minimum, which is
// the standard trick for shaving scheduler noise off micro-timings.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common.hpp"

using namespace offramps;

namespace {

double time_print_s(const std::vector<sim::FaultSpec>& faults,
                    std::uint64_t* events_out) {
  const auto program = bench::standard_cube(3.0);
  double best = 1e99;
  for (int rep = 0; rep < 3; ++rep) {
    host::RigOptions options;
    options.firmware.jitter_seed = 1;
    options.faults = faults;
    host::Rig rig(options);
    const auto t0 = std::chrono::steady_clock::now();
    const host::RunResult r = rig.run(program);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.finished) {
      std::fprintf(stderr, "print did not finish\n");
      std::exit(1);
    }
    *events_out = r.events_executed;
    best = std::min(best,
                    std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: bench_fault_overhead (takes no arguments)\n");
  bench::heading("fault-injector hook overhead on a clean print");

  std::uint64_t ev_base = 0, ev_armed = 0, ev_uart = 0;
  const double base_s = time_print_s({}, &ev_base);

  const std::vector<sim::FaultSpec> armed_noop = {
      {.kind = sim::FaultKind::kGlitch, .target = "ramps.X_STEP",
       .intensity = 0.0},
      {.kind = sim::FaultKind::kStuckLow, .target = "arduino.Y_STEP",
       .intensity = 0.0},
      {.kind = sim::FaultKind::kAnalogDrift, .target = "THERM_HOTEND",
       .intensity = 0.0},
      {.kind = sim::FaultKind::kUartBitFlip, .target = "uart",
       .intensity = 0.0},
      {.kind = sim::FaultKind::kTimingJitter, .target = "scheduler",
       .intensity = 0.0}};
  const double armed_s = time_print_s(armed_noop, &ev_armed);

  // Out-of-window stream fault: hooks hot, corruption never applies.
  const std::vector<sim::FaultSpec> hot_uart = {
      {.kind = sim::FaultKind::kUartBitFlip, .target = "uart",
       .intensity = 0.5, .start = sim::seconds(100000)}};
  const double uart_s = time_print_s(hot_uart, &ev_uart);

  const double armed_pct = (armed_s / base_s - 1.0) * 100.0;
  const double uart_pct = (uart_s / base_s - 1.0) * 100.0;

  std::printf("%-34s %12s %14s %10s\n", "configuration", "best of 3 (s)",
              "events", "vs base");
  bench::rule();
  std::printf("%-34s %13.3f %14llu %9s\n", "baseline (no faults)", base_s,
              static_cast<unsigned long long>(ev_base), "-");
  std::printf("%-34s %13.3f %14llu %+9.2f%%\n",
              "armed, zero intensity (5 specs)", armed_s,
              static_cast<unsigned long long>(ev_armed), armed_pct);
  std::printf("%-34s %13.3f %14llu %+9.2f%%\n",
              "uart fault armed, out of window", uart_s,
              static_cast<unsigned long long>(ev_uart), uart_pct);
  bench::rule();

  const bool pass = armed_pct < 2.0;
  std::printf("no-fault-path overhead %.2f%% (must be < 2%%): %s\n",
              armed_pct, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
