// fleet_monitor: the fleet service in miniature.
//
// Six printers run side by side; two of them have Flaw3D Trojans
// implanted in their g-code path.  Each rig streams its capture into an
// online detector through the bounded ring buffer, and a mid-print alarm
// safe-stops just that rig - the farm keeps printing.
//
// Exits 0 when the outcome matches expectations (both sabotaged rigs
// alarmed mid-print, no clean rig alarmed), 1 otherwise - so the example
// doubles as an integration check.
#include <cstdio>

#include "core/cli.hpp"
#include "svc/fleet.hpp"

int main(int argc, char** argv) {
  using namespace offramps;
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: fleet_monitor (takes no arguments)\n");

  std::vector<svc::RigSpec> specs(6);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "printer-" + std::to_string(i);
    specs[i].seed = 100 + i;
  }
  specs[1].sabotage = svc::parse_sabotage("reduce:0.85");
  specs[4].sabotage = svc::parse_sabotage("relocate:10");

  svc::FleetOptions options;
  options.safe_stop = true;

  std::printf("fleet_monitor: %zu rigs, 2 sabotaged (reduce:0.85 at "
              "printer-1, relocate:10 at printer-4)\n\n",
              specs.size());

  svc::Fleet fleet(options);
  const svc::FleetReport report = fleet.run(specs);
  std::fputs(report.to_string().c_str(), stdout);

  bool ok = true;
  for (const auto& rig : report.rigs) {
    const bool dirty = rig.spec.sabotage.kind != svc::Sabotage::Kind::kNone;
    if (dirty != rig.detector.alarmed) ok = false;
    if (dirty && !rig.detector.alarmed_mid_print) ok = false;
    if (dirty && rig.detector.alarmed) {
      // A clean print of the same object spans this many capture
      // windows; the alarm window against that is how far the sabotaged
      // part had progressed when the fleet pulled the plug.
      const double full_windows = static_cast<double>(
          report.rigs[0].detector.windows_processed > 0
              ? report.rigs[0].detector.windows_processed
              : 1);
      std::printf("\n%s: %s alarm %u windows into the stream "
                  "(g-code line %zu) - print halted %.1f%% of the way in\n",
                  rig.spec.name.c_str(),
                  svc::channel_name(rig.detector.first_channel),
                  rig.detector.alarm_window, rig.detector.alarm_gcode_line,
                  100.0 * rig.detector.alarm_window / full_windows);
    }
  }
  std::printf("\nverdict: %s\n", ok ? "as expected" : "UNEXPECTED");
  return ok ? 0 : 1;
}
