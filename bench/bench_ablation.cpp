// Experiment E7 - ablations on the detection design choices.
//
// Two claims from paper section V-C get quantified:
//
//  A. "This 5% margin of error can be made significantly smaller with a
//     faster communication protocol, as fewer steps possible per
//     transaction would lower the potential drift in counts."
//     -> Sweep the UART transaction period and measure the worst
//        known-good drift: the margin the detector *needs*.
//
//  B. The margin trades false positives against sensitivity.
//     -> Sweep the margin and measure (i) false positives on known-good
//        reprints and (ii) detection of increasingly subtle reduction
//        Trojans.  The exact final-count check catches what per-window
//        margins miss.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "detect/align.hpp"
#include "detect/compare.hpp"
#include "detect/golden_free.hpp"
#include "detect/side_channel.hpp"
#include "gcode/flaw3d.hpp"

using namespace offramps;

namespace {

host::RunResult run_with_uart_period(const gcode::Program& program,
                                     std::uint64_t seed,
                                     sim::Tick uart_period) {
  host::RigOptions options;
  options.firmware.jitter_seed = seed;
  options.board.fpga.uart_period = uart_period;
  host::Rig rig(options);
  return rig.run(program);
}

struct Drift {
  double worst_pct = 0.0;      // relative to the cumulative golden count
  std::int64_t worst_steps = 0;  // absolute count difference
};

Drift max_drift(const core::Capture& a, const core::Capture& b) {
  Drift d;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) {
      const auto g = static_cast<std::int64_t>(a.transactions[i].counts[c]);
      const auto o = static_cast<std::int64_t>(b.transactions[i].counts[c]);
      d.worst_steps = std::max(
          d.worst_steps, static_cast<std::int64_t>(std::llabs(g - o)));
      if (std::llabs(g) < 20 && std::llabs(o) < 20) continue;
      d.worst_pct = std::max(
          d.worst_pct, 100.0 * static_cast<double>(std::llabs(g - o)) /
                           static_cast<double>(std::max<std::int64_t>(
                               std::llabs(g), 1)));
    }
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const auto program = bench::standard_cube(2.5);
  host::ParallelRunner pool(bench::parse_jobs(argc, argv));
  bench::Stopwatch clock;
  std::uint64_t total_events = 0;

  // A captured print plus its event count -- what most of the pooled
  // sections below need back from each job.
  struct Cap {
    core::Capture capture;
    std::uint64_t events = 0;
  };

  // --- A: UART transaction period vs required margin -----------------------
  bench::heading("Ablation A: transaction period vs known-good drift "
                 "(margin required)");
  std::printf("%-14s %-14s %-22s %-16s\n", "period (ms)", "transactions",
              "worst relative drift", "worst abs drift");
  bench::rule();
  // 5 periods x 4 seeds (reference + 3 reprints) = 20 independent prints.
  const unsigned kPeriodsMs[] = {25u, 50u, 100u, 200u, 400u};
  const std::uint64_t kDriftSeeds[] = {1u, 21u, 99u, 512u};
  const std::vector<Cap> period_runs =
      pool.map<Cap>(5 * 4, [&](std::size_t i) {
        const host::RunResult r = run_with_uart_period(
            program, kDriftSeeds[i % 4], sim::ms(kPeriodsMs[i / 4]));
        return Cap{r.capture, r.events_executed};
      });
  for (std::size_t p = 0; p < 5; ++p) {
    const core::Capture& ref = period_runs[p * 4].capture;
    Drift worst;
    for (std::size_t s = 1; s < 4; ++s) {
      const Drift d = max_drift(ref, period_runs[p * 4 + s].capture);
      worst.worst_pct = std::max(worst.worst_pct, d.worst_pct);
      worst.worst_steps = std::max(worst.worst_steps, d.worst_steps);
    }
    std::printf("%-14u %-14zu %13.3f%%        %8lld steps%s\n",
                kPeriodsMs[p], ref.size(), worst.worst_pct,
                static_cast<long long>(worst.worst_steps),
                kPeriodsMs[p] == 100 ? "   <- paper's 0.1 s / 5%" : "");
  }
  for (const Cap& c : period_runs) total_events += c.events;
  std::printf(
      "finding: the paper speculates a faster protocol would permit a\n"
      "smaller margin (\"fewer steps possible per transaction\").  Under\n"
      "the cumulative-count comparison both papers' tool and ours use,\n"
      "the ABSOLUTE drift is set by the print's timing noise - roughly\n"
      "independent of the transaction period - so the RELATIVE margin\n"
      "requirement actually grows for faster transactions (early windows\n"
      "hold smaller cumulative counts).  The speculated benefit requires\n"
      "window-local (delta) comparison, not just a faster link.\n");

  // --- B: margin sweep vs sensitivity and false positives -------------------
  bench::heading("Ablation B: detection margin vs sensitivity / false "
                 "positives");
  const host::RunResult golden = bench::run_print(program, {}, 1);
  total_events += golden.events_executed;
  // Observed prints: 3 clean reprints + reduction Trojans of waning
  // severity -- 7 independent prints, fanned out.
  const std::uint64_t kCleanSeeds[] = {42u, 4242u, 424242u};
  const double kFactors[] = {0.5, 0.9, 0.98, 0.995};
  struct Observed {
    std::string label;
    core::Capture capture;
    std::uint64_t events = 0;
  };
  const std::vector<Observed> observed =
      pool.map<Observed>(3 + 4, [&](std::size_t i) {
        Observed o;
        host::RunResult r;
        if (i < 3) {
          o.label = "clean reprint";
          r = bench::run_print(program, {}, kCleanSeeds[i]);
        } else {
          const double factor = kFactors[i - 3];
          char label[48];
          std::snprintf(label, sizeof(label), "reduction x%.3f", factor);
          o.label = label;
          r = bench::run_print(
              gcode::flaw3d::apply_reduction(program, {.factor = factor}),
              {}, 7);
        }
        o.capture = r.capture;
        o.events = r.events_executed;
        return o;
      });
  for (const Observed& o : observed) total_events += o.events;

  std::printf("%-22s", "margin ->");
  for (const double margin : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    std::printf(" %7.0f%%", margin);
  }
  std::printf("  final-check-only\n");
  bench::rule();
  for (const auto& o : observed) {
    const std::string& label = o.label;
    const core::Capture& capture = o.capture;
    std::printf("%-22s", label.c_str());
    for (const double margin : {1.0, 2.0, 5.0, 10.0, 20.0}) {
      detect::CompareOptions opt;
      opt.margin_pct = margin;
      opt.final_check = false;
      const bool hit = detect::compare(golden.capture, capture, opt)
                           .trojan_likely;
      std::printf(" %8s", hit ? "flag" : ".");
    }
    detect::CompareOptions final_only;
    final_only.margin_pct = 1e9;  // windows disabled
    final_only.final_check = true;
    const bool hit =
        detect::compare(golden.capture, capture, final_only).trojan_likely;
    std::printf("  %s\n", hit ? "flag" : ".");
  }
  bench::rule();
  std::printf(
      "shape check: tight margins flag clean reprints (false positives);\n"
      "the paper's 5%% margin is clean on reprints while flagging every\n"
      "Trojan; the 0%%-margin final check catches even a 0.5%% reduction\n"
      "that windowed margins miss.\n");

  // --- C: golden-model vs golden-free detection -----------------------------
  bench::heading("Ablation C: golden-model detection vs golden-free "
                 "plausibility rules");
  std::printf("%-26s %-14s %-14s\n", "workload", "golden-model",
              "golden-free");
  bench::rule();
  struct Workload {
    std::string label;
    gcode::Program program;
    bool is_trojan;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"clean reprint", program, false});
  for (const double f : {0.5, 0.85, 0.98}) {
    char label[40];
    std::snprintf(label, sizeof(label), "reduction x%.2f", f);
    workloads.push_back(
        {label, gcode::flaw3d::apply_reduction(program, {.factor = f}),
         true});
  }
  for (const std::uint32_t n : {5u, 20u, 100u}) {
    char label[40];
    std::snprintf(label, sizeof(label), "relocation n=%u", n);
    workloads.push_back(
        {label,
         gcode::flaw3d::apply_relocation(
             program, {.every_n_moves = n, .take_fraction = 0.15}),
         true});
  }
  const std::vector<Cap> workload_caps =
      pool.map<Cap>(workloads.size(), [&](std::size_t i) {
        const host::RunResult r =
            bench::run_print(workloads[i].program, {}, 99);
        return Cap{r.capture, r.events_executed};
      });
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    const core::Capture& cap = workload_caps[i].capture;
    total_events += workload_caps[i].events;
    const bool golden_hit =
        detect::compare(golden.capture, cap).trojan_likely;
    const bool free_hit = detect::analyze_golden_free(cap).trojan_likely;
    const auto verdict = [&](bool hit) {
      if (!w.is_trojan) return hit ? "FALSE POS" : "clean";
      return hit ? "detected" : "missed";
    };
    std::printf("%-26s %-14s %-14s\n", w.label.c_str(),
                verdict(golden_hit), verdict(free_hit));
  }
  bench::rule();
  std::printf(
      "shape check: golden-free rules need no reference print and catch\n"
      "gross manipulation (heavy starvation, coarse blob dumps), but the\n"
      "subtle Table II cases require the golden model - quantifying why\n"
      "the paper built the golden-capture workflow.\n");

  // --- D: lossless signal taps vs the lossy power side channel --------------
  bench::heading("Ablation D: OFFRAMPS step counts vs power side-channel "
                 "(related-work baseline)");
  const auto probed = [&](const gcode::Program& p, std::uint64_t seed,
                          core::TrojanSuiteConfig trojans =
                              core::TrojanSuiteConfig{}) {
    host::RigOptions options;
    options.firmware.jitter_seed = seed;
    options.probes[plant::SampleKind::kPower] = seed ^ 0xFACE;
    options.trojans = std::move(trojans);
    host::Rig rig(options);
    return rig.run(p);
  };
  const host::RunResult gold = probed(program, 1);
  total_events += gold.events_executed;

  struct DCase {
    std::string label;
    gcode::Program program;
    core::TrojanSuiteConfig trojans;
    bool is_attack;
  };
  std::vector<DCase> dcases;
  dcases.push_back({"clean reprint", program, {}, false});
  dcases.push_back({"reduction x0.98 (TabII #4)",
                    gcode::flaw3d::apply_reduction(program, {.factor = 0.98}),
                    {},
                    true});
  dcases.push_back({"relocation n=100 (TabII #8)",
                    gcode::flaw3d::apply_relocation(
                        program, {.every_n_moves = 100,
                                  .take_fraction = 0.15}),
                    {},
                    true});
  {
    core::TrojanSuiteConfig t6;
    t6.t6 = core::T6Config{.hotend = true, .bed = false,
                           .delay_after_homing_s = 10.0};
    dcases.push_back({"T6 heater DoS (signal-level)", program, t6, true});
  }

  std::printf("%-30s %-18s %-18s\n", "workload", "step counts",
              "power signature");
  bench::rule();
  const std::vector<host::RunResult> druns =
      pool.map<host::RunResult>(dcases.size(), [&](std::size_t i) {
        return probed(dcases[i].program, 97, dcases[i].trojans);
      });
  for (std::size_t i = 0; i < dcases.size(); ++i) {
    const DCase& c = dcases[i];
    const host::RunResult& r = druns[i];
    total_events += r.events_executed;
    const bool counts_hit =
        detect::compare(gold.capture, r.capture).trojan_likely;
    const bool power_hit =
        detect::compare_side(gold.power_trace, r.power_trace,
                             detect::kPowerSignature)
            .sabotage_likely;
    const auto verdict = [&](bool hit) {
      if (!c.is_attack) return hit ? "FALSE POS" : "clean";
      return hit ? "detected" : "missed";
    };
    std::printf("%-30s %-18s %-18s\n", c.label.c_str(),
                verdict(counts_hit), verdict(power_hit));
  }
  bench::rule();
  std::printf(
      "shape check: the lossy power channel needs watts-scale effects\n"
      "(heater DoS) and misses the stealthy Table II cases the lossless\n"
      "step-count taps catch - the paper's core claim (\"no loss of\n"
      "data\") made quantitative.\n");

  // --- E: window alignment vs required margin --------------------------------
  bench::heading("Ablation E: positional vs aligned comparison "
                 "(false positives across clean reprints)");
  const std::uint64_t kReprintSeeds[] = {11u, 222u, 3333u, 44444u, 555555u};
  const std::vector<Cap> reprint_caps =
      pool.map<Cap>(5, [&](std::size_t i) {
        const host::RunResult r =
            bench::run_print(program, {}, kReprintSeeds[i]);
        return Cap{r.capture, r.events_executed};
      });
  std::vector<core::Capture> reprints;
  for (const Cap& c : reprint_caps) {
    reprints.push_back(c.capture);
    total_events += c.events;
  }
  std::printf("%-12s %-20s %-20s %-20s\n", "margin", "positional (of 5)",
              "global shift (of 5)", "slack +/-2 (of 5)");
  bench::rule();
  for (const double margin : {0.5, 1.0, 2.0, 5.0}) {
    detect::CompareOptions opt;
    opt.margin_pct = margin;
    detect::CompareOptions slack_opt = opt;
    slack_opt.window_slack = 2;
    int fp_positional = 0, fp_aligned = 0, fp_slack = 0;
    for (const auto& cap : reprints) {
      if (detect::compare(golden.capture, cap, opt).trojan_likely) {
        ++fp_positional;
      }
      if (detect::compare_aligned(golden.capture, cap, opt)
              .trojan_likely) {
        ++fp_aligned;
      }
      if (detect::compare(golden.capture, cap, slack_opt).trojan_likely) {
        ++fp_slack;
      }
    }
    std::printf("%7.1f%%    %-20d %-20d %-20d\n", margin, fp_positional,
                fp_aligned, fp_slack);
  }
  bench::rule();
  // Sensitivity side: the tight slack margin must still catch the
  // stealthiest Table II case.
  {
    detect::CompareOptions slack_opt;
    slack_opt.margin_pct = 1.0;
    slack_opt.window_slack = 2;
    const auto mutated =
        gcode::flaw3d::apply_reduction(program, {.factor = 0.98});
    const auto cap = bench::run_print(mutated, {}, 71).capture;
    std::printf(
        "sensitivity check: 1%% margin + slack 2 on reduction x0.98 -> "
        "%s\n",
        detect::compare(golden.capture, cap, slack_opt).trojan_likely
            ? "detected"
            : "MISSED");
  }
  std::printf(
      "finding: neither a whole-series shift nor per-window slack is\n"
      "what buys margin here - the residual false positives were 1-step\n"
      "quantization noise on small counts, fixed by scaling the small-\n"
      "count exemption with the margin (CompareOptions::quantization_\n"
      "steps).  With that floor, a 1%% margin runs clean while still\n"
      "catching the stealthiest Table II case: a 5x tighter margin than\n"
      "the paper's, obtained in software rather than with a faster\n"
      "link.  Drift only becomes the binding constraint below ~0.5%%.\n");

  // --- F: planner junction lookahead --------------------------------------
  bench::heading("Ablation F: planner junction lookahead (print time; "
                 "step counts invariant)");
  const auto timed_with = [&](bool lookahead) {
    host::RigOptions options;
    options.firmware.jitter_seed = 1;
    options.firmware.segment_jitter_max = 0;
    options.firmware.junction_lookahead = lookahead;
    host::Rig rig(options);
    return rig.run(program);
  };
  const std::vector<host::RunResult> la_runs =
      pool.map<host::RunResult>(2, [&](std::size_t i) {
        return timed_with(i == 0);
      });
  const host::RunResult& with_la = la_runs[0];
  const host::RunResult& without_la = la_runs[1];
  total_events += with_la.events_executed + without_la.events_executed;
  std::printf("  with lookahead:    %.1f s, finals E=%lld\n",
              with_la.sim_seconds,
              static_cast<long long>(with_la.capture.final_counts[3]));
  std::printf("  without lookahead: %.1f s, finals E=%lld\n",
              without_la.sim_seconds,
              static_cast<long long>(without_la.capture.final_counts[3]));
  std::printf(
      "  speedup: %.1f%%; final counts equal: %s (timing feature only)\n",
      100.0 * (without_la.sim_seconds - with_la.sim_seconds) /
          without_la.sim_seconds,
      with_la.capture.final_counts == without_la.capture.final_counts
          ? "yes"
          : "NO");

  const double wall_s = clock.seconds();
  bench::BenchJson json("ablation");
  json.add("jobs", pool.workers());
  json.add("wall_seconds", wall_s);
  json.add("scheduler_events", total_events);
  json.add("events_per_second",
           wall_s > 0.0 ? static_cast<double>(total_events) / wall_s : 0.0);
  json.write();
  return 0;
}
