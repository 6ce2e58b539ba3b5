// Parallel-runner scaling benchmark.
//
// Runs the same batch of independent seeded prints on 1 worker and on N
// workers (default 4, override with --jobs), verifies the two result
// sets are bit-identical (the ParallelRunner determinism contract), and
// reports wall-clock, events/sec, and the measured speedup to stdout and
// BENCH_parallel.json.  The JSON includes the host's hardware
// concurrency: on a 1-core machine the honest speedup is ~1x and the
// artifact says why.
//
// Also enforces an absolute single-worker throughput floor: a scheduler
// or hot-path regression that halves events/s fails this bench by exit
// code, not just in a dashboard.  On a 4-vCPU x86-64 VM the binary-heap
// scheduler measured 1.2-2.4e7 events/s across slow and quiet spells (the
// timer wheel it replaced: 0.74-1.3e7).  The floor sits at half the
// slow-spell reading, because shared hosts have slow spells of ~1.7x and
// a floor near the measured rate would flake.  Not enforced under
// sanitizers.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/bytes.hpp"

using namespace offramps;

namespace {

/// FNV-1a over the run's observable outputs (capture transactions, final
/// counts, motor steps, part metrics).  Equal digests across worker
/// counts == equal simulations.
std::uint64_t digest(const host::RunResult& r) {
  core::Fnv1a f;
  for (const auto& txn : r.capture.transactions) {
    f.u64(txn.time_ns);
    for (const auto c : txn.counts) f.u64(static_cast<std::uint64_t>(c));
  }
  for (const auto c : r.capture.final_counts) {
    f.u64(static_cast<std::uint64_t>(c));
  }
  for (const auto s : r.motor_steps) f.u64(static_cast<std::uint64_t>(s));
  f.u64(static_cast<std::uint64_t>(r.part.total_filament_mm * 1e6));
  f.u64(r.events_executed);
  return f.value();
}

struct BatchOut {
  std::vector<std::uint64_t> digests;
  std::uint64_t events = 0;
  double wall_s = 0.0;
};

BatchOut run_batch(const gcode::Program& program, std::size_t sims,
                   std::size_t workers) {
  host::ParallelRunner pool(workers);
  bench::Stopwatch clock;
  struct Out {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
  };
  const std::vector<Out> outs = pool.map<Out>(sims, [&](std::size_t i) {
    const host::RunResult r =
        bench::run_print(program, {}, 1000 + 37 * i);
    return Out{digest(r), r.events_executed};
  });
  BatchOut batch;
  batch.wall_s = clock.seconds();
  for (const Out& o : outs) {
    batch.digests.push_back(o.digest);
    batch.events += o.events;
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  const auto program = bench::standard_cube(2.0);
  constexpr std::size_t kSims = 8;
  // Single-worker events/s floor; see header comment for how it is set.
  constexpr double kEventsPerSecFloor = 6.0e6;
  std::size_t jobs = bench::parse_jobs(argc, argv);
  if (jobs < 2) jobs = 4;  // measure scaling even when launched bare

  bench::heading("ParallelRunner scaling on independent seeded prints");
  std::printf("batch: %zu prints; comparing 1 worker vs %zu workers "
              "(hardware concurrency: %u)\n",
              kSims, jobs, std::thread::hardware_concurrency());

  BatchOut seq = run_batch(program, kSims, 1);
  const BatchOut par = run_batch(program, kSims, jobs);
  double eps_1 = seq.wall_s > 0.0
                     ? static_cast<double>(seq.events) / seq.wall_s
                     : 0.0;
  const bool floor_enforced = !bench::built_with_sanitizers();
  for (int attempt = 0;
       floor_enforced && eps_1 < kEventsPerSecFloor && attempt < 2;
       ++attempt) {
    // A descheduled first pass can fake a slow simulator; re-measuring
    // and keeping the fastest pass rescues noise, not a real regression.
    std::fprintf(stderr,
                 "note: %.3g events/s under floor, re-measuring "
                 "(attempt %d)\n",
                 eps_1, attempt + 2);
    const BatchOut retry = run_batch(program, kSims, 1);
    const double eps = retry.wall_s > 0.0
                           ? static_cast<double>(retry.events) / retry.wall_s
                           : 0.0;
    if (eps > eps_1) {
      eps_1 = eps;
      seq.wall_s = retry.wall_s;
    }
  }

  const bool identical = seq.digests == par.digests;
  const bool fast_enough = eps_1 >= kEventsPerSecFloor;
  const double speedup = par.wall_s > 0.0 ? seq.wall_s / par.wall_s : 0.0;
  std::printf("  1 worker : %.3f s  (%.3g events/s; floor %.3g, %s)\n",
              seq.wall_s, eps_1, kEventsPerSecFloor,
              fast_enough      ? "ok"
              : floor_enforced ? "FAIL"
                               : "not enforced: sanitized build");
  std::printf("  %zu workers: %.3f s  (%.3g events/s)\n", jobs, par.wall_s,
              static_cast<double>(par.events) / par.wall_s);
  std::printf("  speedup: %.2fx; results bit-identical: %s\n", speedup,
              identical ? "yes" : "NO");
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("  note: single-hardware-thread host -- parallel speedup "
                "cannot exceed ~1x here;\n"
                "  the determinism contract is what this run verifies.\n");
  }

  bench::BenchJson json("parallel");
  json.add("sims", kSims);
  json.add("jobs", jobs);
  json.add("wall_seconds_1", seq.wall_s);
  json.add("wall_seconds_n", par.wall_s);
  json.add("speedup", speedup);
  json.add("events_per_second_1", eps_1);
  json.add("events_per_second_n",
           par.wall_s > 0.0 ? static_cast<double>(par.events) / par.wall_s
                            : 0.0);
  json.add("events_per_second_floor", kEventsPerSecFloor);
  json.add("floor_enforced", floor_enforced);
  json.add("bit_identical", identical);
  json.write();
  if (!identical) return 1;
  if (floor_enforced && !fast_enough) {
    std::fprintf(stderr, "FAIL: %.3g events/s < %.3g floor\n", eps_1,
                 kEventsPerSecFloor);
    return 1;
  }
  return 0;
}
