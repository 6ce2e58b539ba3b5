#include "host/parallel_runner.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/strict_parse.hpp"

namespace offramps::host {

namespace {

/// Runs `fn`; returns what it threw, or null.
template <typename Fn>
std::exception_ptr call(const Fn& fn) {
  try {
    fn();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

ParallelRunner::ParallelRunner(std::size_t workers)
    : workers_(workers == 0 ? default_workers() : workers) {
  if (workers_ <= 1) return;  // Inline mode: no threads.
  // Handles are registered up front (one registry lock per pool, off the
  // job path) so per-worker balance shows up keyed deterministically:
  // host.pool.worker.<i>.executed.
  for (std::size_t i = 0; i < workers_; ++i) {
    executed_.push_back(&obs::Registry::instance().counter(
        "host.pool.worker." + std::to_string(i) + ".executed"));
  }
  parks_ = &obs::Registry::instance().counter("host.pool.parks");
  unparks_ = &obs::Registry::instance().counter("host.pool.unparks");
  threads_.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ParallelRunner::~ParallelRunner() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t ParallelRunner::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw == 0 ? 1 : hw;
  if (const char* env = std::getenv("OFFRAMPS_JOBS")) {
    const auto v = core::parse_long(env);
    if (v && *v >= 1) return static_cast<std::size_t>(*v);
    // Malformed ("8x", "", "0", "-3"): warn once per process, then fall
    // back to the documented default rather than silently degrading to
    // one worker.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "OFFRAMPS_JOBS='%s' is not a positive integer; "
                   "using hardware concurrency (%zu)\n",
                   env, cores);
    }
  }
  return cores;
}

void ParallelRunner::run(std::size_t jobs,
                         const std::function<void(std::size_t)>& body) {
  if (jobs == 0) return;
  Latch batch;
  if (threads_.empty()) {
    // Inline path: byte-for-byte the reference execution order, with the
    // same drain-then-rethrow-first semantics as the threaded path.
    for (std::size_t i = 0; i < jobs; ++i) {
      std::exception_ptr err = call([&] { body(i); });
      if (err && !batch.first_error) batch.first_error = std::move(err);
    }
  } else {
    {
      std::lock_guard<std::mutex> lk(mu_);
      batch.pending = jobs;
      for (std::size_t i = 0; i < jobs; ++i) {
        jobs_.push_back({[&body, i] { body(i); }, &batch});
      }
    }
    work_cv_.notify_all();
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&batch] { return batch.pending == 0; });
  }
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

void ParallelRunner::post(std::function<void()> job) {
  if (threads_.empty()) {
    // Inline mode has no threads to hand the job to; run it now and let
    // drain() surface the error, same contract as the pooled path.
    std::exception_ptr err = call(job);
    std::lock_guard<std::mutex> lk(mu_);
    if (err && !posted_.first_error) posted_.first_error = std::move(err);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back({std::move(job), &posted_});
    ++posted_.pending;
  }
  work_cv_.notify_one();
}

void ParallelRunner::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] { return posted_.pending == 0; });
  if (posted_.first_error) {
    std::rethrow_exception(std::exchange(posted_.first_error, nullptr));
  }
}

void ParallelRunner::worker_loop(std::size_t self) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto ready = [this] { return shutdown_ || !jobs_.empty(); };
  while (true) {
    if (obs::enabled() && !ready()) {
      // A park is a worker actually going to sleep on the condition
      // variable (the predicate was false on arrival); the matching
      // unpark is its wake-up.  Handles were bound in the constructor,
      // so this path is two striped relaxed adds.
      parks_->add(1);
      work_cv_.wait(lk, ready);
      unparks_->add(1);
    } else {
      work_cv_.wait(lk, ready);
    }
    // Shutdown waits for the queue to empty, so a job queued before the
    // destructor still runs.
    if (jobs_.empty()) return;
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    lk.unlock();
    if (obs::enabled()) executed_[self]->add(1);
    std::exception_ptr err = call(job.fn);
    job.fn = nullptr;  // captures die before the latch reports done
    lk.lock();
    Latch& latch = *job.latch;
    if (err && !latch.first_error) latch.first_error = std::move(err);
    if (--latch.pending == 0) done_cv_.notify_all();
  }
}

}  // namespace offramps::host
