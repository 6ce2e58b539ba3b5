// Batch executor for independent simulations.
//
// Every evaluation workload in this repository -- the fault-campaign
// sweep, the drift study's seeded reprints, Table I/II case matrices,
// ablation grids -- is a batch of *independent, deterministic* `Rig`
// runs: each job builds its own scheduler, firmware, board, and plant,
// and shares no mutable state with its siblings.  `ParallelRunner`
// spreads such a batch over a pool of worker threads.  Each sim stays
// single-threaded and seed-deterministic, and results are stored by job
// index, so a batch's output is bit-identical to sequential execution
// regardless of the worker count or which thread ran which job.
//
// Scheduling is one FIFO under the pool mutex: run() queues its indices
// in order and post() queues one job, each against a completion latch
// (run()'s on its own stack, post()'s a member that drain() waits on),
// and an idle worker takes the front job.  Jobs here are whole prints
// (milliseconds to seconds each), so one shared lock is noise.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

namespace offramps::host {

class ParallelRunner {
 public:
  /// A pool with `workers` threads; 0 resolves via default_workers().
  /// With one worker, jobs run inline on the calling thread.
  explicit ParallelRunner(std::size_t workers = 0);
  /// Jobs still queued run to completion before the workers exit.
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// Executes `body(0) .. body(jobs-1)`, distributed over the pool, and
  /// blocks until every job finished.  `body` must be thread-safe across
  /// distinct indices (independent jobs).  If any job throws, the first
  /// exception (in completion order) is rethrown after the batch drains;
  /// the remaining jobs still run.  Not reentrant: do not call run()
  /// from inside a job.
  void run(std::size_t jobs, const std::function<void(std::size_t)>& body);

  /// Service API for long-lived callers (the fleet daemon): enqueues one
  /// independent job on the pool and returns immediately.  Posted jobs
  /// share the queue with run() batches, but never their errors.  With
  /// one worker the job executes inline on the calling thread (there is
  /// no pool to defer to); its exception, like a pooled job's, surfaces
  /// at the next drain().
  void post(std::function<void()> job);

  /// Blocks until every post()ed job has finished, then rethrows the
  /// first posted job's exception (in completion order), if any.
  void drain();

  /// Maps `fn` over [0, jobs) into a vector ordered by job index --
  /// identical to the sequential result whatever the worker count.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map(std::size_t jobs, Fn&& fn) {
    static_assert(!std::is_same_v<T, bool>,
                  "std::vector<bool> is bit-packed; concurrent writes to "
                  "adjacent indices race.  Map into char/int instead.");
    std::vector<T> out(jobs);
    run(jobs, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Worker count from the environment.  `OFFRAMPS_JOBS` must be a
  /// whole positive base-10 integer ("8"); anything else - trailing
  /// garbage ("8x"), zero, negatives, empty - is rejected with a
  /// one-time stderr warning and the documented default applies:
  /// std::thread::hardware_concurrency() (1 when unknown).
  [[nodiscard]] static std::size_t default_workers();

 private:
  /// Completion count and first error of one group of jobs (a run()
  /// batch, or everything post()ed); guarded by mu_.
  struct Latch {
    std::size_t pending = 0;
    std::exception_ptr first_error;
  };
  struct Job {
    std::function<void()> fn;
    Latch* latch;
  };

  void worker_loop(std::size_t self);

  std::size_t workers_;
  std::vector<std::thread> threads_;
  /// obs:: registry handles, bound at construction so the job and park
  /// paths pay no registry lookup; increments are gated on
  /// obs::enabled().
  std::vector<obs::Counter*> executed_;  // jobs each worker ran
  obs::Counter* parks_ = nullptr;
  obs::Counter* unparks_ = nullptr;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Job> jobs_;
  Latch posted_;
  bool shutdown_ = false;
};

}  // namespace offramps::host
