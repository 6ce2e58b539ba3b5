// host::ParallelRunner: scheduling correctness, exception propagation,
// and the determinism contract -- a batch of independent Rig simulations
// must produce byte-identical results for any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bytes.hpp"
#include "host/fault_campaign.hpp"
#include "host/parallel_runner.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

namespace offramps {
namespace {

gcode::Program small_cube() {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 8.0,
                      .size_y_mm = 8.0,
                      .height_mm = 2.0,
                      .center_x_mm = 110.0,
                      .center_y_mm = 100.0};
  return host::slice_cube(cube, profile);
}

/// FNV-1a over a run's capture: equal digests == equal simulations.
std::uint64_t capture_digest(const host::RunResult& r) {
  core::Fnv1a f;
  for (const auto& txn : r.capture.transactions) {
    f.u64(txn.time_ns);
    for (const auto c : txn.counts) f.u64(static_cast<std::uint64_t>(c));
  }
  for (const auto c : r.capture.final_counts) {
    f.u64(static_cast<std::uint64_t>(c));
  }
  for (const auto s : r.motor_steps) f.u64(static_cast<std::uint64_t>(s));
  f.u64(r.events_executed);
  return f.value();
}

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    host::ParallelRunner pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    constexpr std::size_t kJobs = 100;
    std::vector<std::atomic<int>> hits(kJobs);
    pool.run(kJobs, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " @" << workers;
    }
  }
}

TEST(ParallelRunner, MapPreservesIndexOrder) {
  host::ParallelRunner pool(4);
  const std::vector<std::size_t> out =
      pool.map<std::size_t>(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelRunner, EmptyBatchIsANoop) {
  host::ParallelRunner pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "no jobs should run"; });
  EXPECT_TRUE(pool.map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(ParallelRunner, MoreWorkersThanJobs) {
  host::ParallelRunner pool(8);
  const std::vector<int> out =
      pool.map<int>(3, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelRunner, PoolIsReusableAcrossBatches) {
  host::ParallelRunner pool(3);
  for (int batch = 0; batch < 5; ++batch) {
    std::atomic<int> sum{0};
    pool.run(10, [&](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 45) << "batch " << batch;
  }
}

TEST(ParallelRunner, BackToBackTinyBatchesNeverLoseTheWakeup) {
  // Regression: run() used to publish the batch counter before enqueuing
  // jobs, so a worker re-parking between batches could consume its wait
  // predicate against empty queues and sleep through the only notify.
  // Tiny batches issued back-to-back maximize that re-park window; a
  // regression shows up as this test hanging.
  host::ParallelRunner pool(4);
  std::atomic<long> total{0};
  long expected = 0;
  for (int batch = 0; batch < 2'000; ++batch) {
    const std::size_t jobs = 1 + batch % 3;
    expected += static_cast<long>(jobs);
    pool.run(jobs, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelRunner, ExceptionPropagatesAndBatchDrains) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    host::ParallelRunner pool(workers);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.run(20,
                 [&](std::size_t i) {
                   ++ran;
                   if (i == 7) throw std::runtime_error("job 7 failed");
                 }),
        std::runtime_error);
    // Every job still executed; the failure did not abandon the batch.
    EXPECT_EQ(ran.load(), 20) << workers << " workers";
    // The pool survives the failed batch.
    std::atomic<int> sum{0};
    pool.run(4, [&](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 6);
  }
}

TEST(ParallelRunner, DefaultWorkersHonorsEnvironment) {
  // Malformed values must fall back to the documented default (cores),
  // not silently degrade to one worker; test_strict_parse covers the
  // full edge-case matrix.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw == 0 ? 1 : hw;
  ::setenv("OFFRAMPS_JOBS", "5", 1);
  EXPECT_EQ(host::ParallelRunner::default_workers(), 5u);
  ::setenv("OFFRAMPS_JOBS", "0", 1);
  EXPECT_EQ(host::ParallelRunner::default_workers(), cores);
  ::setenv("OFFRAMPS_JOBS", "garbage", 1);
  EXPECT_EQ(host::ParallelRunner::default_workers(), cores);
  ::unsetenv("OFFRAMPS_JOBS");
  EXPECT_GE(host::ParallelRunner::default_workers(), 1u);
}

// --- Service lane (post/drain) --------------------------------------------
//
// The daemon's accept loop post()s one job per rig session and drain()s
// at shutdown; these pin the lane's contract independently of sockets.

TEST(ParallelRunnerService, PostedJobsAllRunByDrain) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    host::ParallelRunner pool(workers);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
      pool.post([&ran] { ++ran; });
    }
    pool.drain();
    EXPECT_EQ(ran.load(), 100) << workers << " workers";
  }
}

TEST(ParallelRunnerService, DrainWithoutPostsIsANoop) {
  host::ParallelRunner pool(2);
  pool.drain();
  pool.drain();
}

TEST(ParallelRunnerService, DrainRethrowsAfterEveryJobFinished) {
  host::ParallelRunner pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.post([&ran, i] {
      ++ran;
      if (i == 7) throw std::runtime_error("session 7 failed");
    });
  }
  EXPECT_THROW(pool.drain(), std::runtime_error);
  EXPECT_EQ(ran.load(), 20) << "a failed session must not abandon the rest";
  // The lane survives the failure.
  std::atomic<int> again{0};
  pool.post([&again] { ++again; });
  pool.drain();
  EXPECT_EQ(again.load(), 1);
}

TEST(ParallelRunnerService, PostInterleavesWithRunBatches) {
  // Sessions keep arriving while batch work flows through the same pool;
  // both lanes must complete without losing a job.
  host::ParallelRunner pool(3);
  std::atomic<int> sessions{0};
  std::atomic<int> batch{0};
  for (int round = 0; round < 10; ++round) {
    pool.post([&sessions] { ++sessions; });
    pool.run(5, [&batch](std::size_t) { ++batch; });
    pool.post([&sessions] { ++sessions; });
  }
  pool.drain();
  EXPECT_EQ(sessions.load(), 20);
  EXPECT_EQ(batch.load(), 50);
}

TEST(ParallelRunnerService, PostFromWorkerThreadCompletes) {
  // A session job may itself enqueue follow-up work (the daemon's
  // accept loop posts from the poll thread while workers are busy).
  host::ParallelRunner pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.post([&pool, &ran] {
      pool.post([&ran] { ++ran; });
      ++ran;
    });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelRunnerService, ErrorsStayWithTheirCaller) {
  // run() batches and posted jobs share one queue but not their errors.
  host::ParallelRunner pool(2);
  std::atomic<bool> batch_running{false};
  std::atomic<bool> posted_threw{false};
  const auto await = [](const std::atomic<bool>& flag) {
    while (!flag) std::this_thread::yield();
  };

  // A posted job, queued before the batch, throws while the batch runs:
  // the batch completes cleanly and the error waits for drain().
  pool.post([&] {
    await(batch_running);
    posted_threw = true;
    throw std::runtime_error("posted job failed");
  });
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(pool.run(4, [&](std::size_t i) {
    batch_running = true;
    if (i == 0) {
      await(posted_threw);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ++ran;
  }));
  EXPECT_EQ(ran.load(), 4);
  EXPECT_THROW(pool.drain(), std::runtime_error);

  // A batch job throws while a posted job is in flight: run() rethrows
  // it, drain() does not.
  batch_running = false;
  std::atomic<bool> posted_ran{false};
  pool.post([&] {
    await(batch_running);
    posted_ran = true;
  });
  EXPECT_THROW(pool.run(4,
                        [&](std::size_t i) {
                          batch_running = true;
                          if (i == 2) throw std::runtime_error("job 2");
                        }),
               std::runtime_error);
  EXPECT_NO_THROW(pool.drain());
  EXPECT_TRUE(posted_ran.load());
}

TEST(ParallelRunnerService, DestructorRunsStillQueuedPostedJobs) {
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  std::thread releaser;
  {
    host::ParallelRunner pool(2);
    // Two blockers hold both workers, so the other ten are still queued
    // when the pool goes out of scope without a drain().
    for (int i = 0; i < 2; ++i) {
      pool.post([&] {
        while (!release) std::this_thread::yield();
        ++ran;
      });
    }
    for (int i = 0; i < 10; ++i) pool.post([&ran] { ++ran; });
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release = true;
    });
  }
  releaser.join();
  EXPECT_EQ(ran.load(), 12);
}

// --- Determinism suite ----------------------------------------------------
//
// The contract the whole PR rests on: distributing independent sims over
// workers must not change a single byte of any result.

TEST(ParallelDeterminism, CaptureDigestsMatchSequential) {
  const gcode::Program program = small_cube();
  constexpr std::size_t kSims = 4;

  const auto digests_with = [&](std::size_t workers) {
    host::ParallelRunner pool(workers);
    return pool.map<std::uint64_t>(kSims, [&](std::size_t i) {
      host::RigOptions options;
      options.firmware.jitter_seed = 100 + 7 * i;
      host::Rig rig(options);
      return capture_digest(rig.run(program));
    });
  };

  const std::vector<std::uint64_t> seq = digests_with(1);
  ASSERT_EQ(seq.size(), kSims);
  // Distinct seeds must give distinct sims (the digest is not degenerate).
  EXPECT_GT(std::set<std::uint64_t>(seq.begin(), seq.end()).size(), 1u);
  EXPECT_EQ(digests_with(2), seq);
  EXPECT_EQ(digests_with(8), seq);
}

TEST(ParallelDeterminism, CampaignJsonByteIdenticalAcrossWorkerCounts) {
  const gcode::Program program = small_cube();

  // A slice of the default sweep keeps the test quick while covering
  // three fault families.
  std::vector<sim::FaultSpec> sweep = host::FaultCampaign::default_sweep();
  sweep.resize(6);

  const auto report_with = [&](std::size_t workers) {
    host::FaultCampaign campaign(program, "determinism-cube");
    host::ParallelRunner pool(workers);
    return campaign.run(sweep, pool).to_json();
  };
  const std::string seq = report_with(1);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(report_with(2), seq);
  EXPECT_EQ(report_with(8), seq);
}

}  // namespace
}  // namespace offramps
