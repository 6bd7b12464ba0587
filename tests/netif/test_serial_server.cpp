#include "netif/serial_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace nimcast::netif {
namespace {

TEST(SerialServer, ExecutesTasksFifoBackToBack) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  std::vector<std::pair<int, sim::Time>> done;
  for (int i = 0; i < 3; ++i) {
    server.enqueue(sim::Time::us(2.0),
                   [&, i] { done.emplace_back(i, simctx.now()); });
  }
  simctx.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], (std::pair{0, sim::Time::us(2.0)}));
  EXPECT_EQ(done[1], (std::pair{1, sim::Time::us(4.0)}));
  EXPECT_EQ(done[2], (std::pair{2, sim::Time::us(6.0)}));
}

TEST(SerialServer, IdleServerStartsImmediately) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  sim::Time done_at;
  simctx.schedule_at(sim::Time::us(5.0), [&] {
    server.enqueue(sim::Time::us(1.0), [&] { done_at = simctx.now(); });
  });
  simctx.run();
  EXPECT_EQ(done_at, sim::Time::us(6.0));
}

TEST(SerialServer, CompletionActionMayEnqueueMoreWork) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  sim::Time second_done;
  server.enqueue(sim::Time::us(1.0), [&] {
    server.enqueue(sim::Time::us(3.0), [&] { second_done = simctx.now(); });
  });
  simctx.run();
  EXPECT_EQ(second_done, sim::Time::us(4.0));
}

TEST(SerialServer, WorkEnqueuedByActionGoesBehindQueuedWork) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  std::vector<int> order;
  server.enqueue(sim::Time::us(1.0), [&] {
    order.push_back(0);
    server.enqueue(sim::Time::us(1.0), [&] { order.push_back(2); });
  });
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(1); });
  simctx.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SerialServer, EnqueueFrontJumpsQueue) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  std::vector<int> order;
  server.enqueue(sim::Time::us(1.0), [&] {
    order.push_back(0);
    server.enqueue_front(sim::Time::us(1.0), [&] { order.push_back(1); });
  });
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(2); });
  simctx.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SerialServer, BusyAndQueuedObservable) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  server.enqueue(sim::Time::us(1.0), [] {});
  server.enqueue(sim::Time::us(1.0), [] {});
  EXPECT_TRUE(server.busy());
  EXPECT_EQ(server.queued(), 1u);
  simctx.run();
  EXPECT_FALSE(server.busy());
  EXPECT_EQ(server.queued(), 0u);
}

TEST(SerialServer, BusyTimeAccumulates) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  server.enqueue(sim::Time::us(1.5), [] {});
  server.enqueue(sim::Time::us(2.5), [] {});
  simctx.run();
  EXPECT_EQ(server.busy_time(), sim::Time::us(4.0));
}

TEST(SerialServer, ZeroDurationTaskCompletesAtEnqueueTime) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  sim::Time done_at = sim::Time::us(99.0);
  server.enqueue(sim::Time::zero(), [&] { done_at = simctx.now(); });
  simctx.run();
  EXPECT_EQ(done_at, sim::Time::zero());
}


// --- multi-worker (multi-engine NI) behaviour -----------------------------

TEST(SerialServerMultiWorker, TasksOverlapUpToWorkerCount) {
  sim::Simulator simctx;
  SerialServer server{simctx, 2};
  std::vector<std::pair<int, sim::Time>> done;
  for (int i = 0; i < 4; ++i) {
    server.enqueue(sim::Time::us(2.0),
                   [&, i] { done.emplace_back(i, simctx.now()); });
  }
  simctx.run();
  ASSERT_EQ(done.size(), 4u);
  // Pairs complete together: {0,1} at 2us, {2,3} at 4us.
  EXPECT_EQ(done[0].second, sim::Time::us(2.0));
  EXPECT_EQ(done[1].second, sim::Time::us(2.0));
  EXPECT_EQ(done[2].second, sim::Time::us(4.0));
  EXPECT_EQ(done[3].second, sim::Time::us(4.0));
}

TEST(SerialServerMultiWorker, FifoStartOrderPreserved) {
  sim::Simulator simctx;
  SerialServer server{simctx, 3};
  std::vector<int> order;
  // Different durations: starts remain FIFO even though completions
  // reorder.
  server.enqueue(sim::Time::us(5.0), [&] { order.push_back(0); });
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(1); });
  server.enqueue(sim::Time::us(3.0), [&] { order.push_back(2); });
  simctx.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(SerialServerMultiWorker, BusyTimeSumsAllWorkers) {
  sim::Simulator simctx;
  SerialServer server{simctx, 4};
  for (int i = 0; i < 4; ++i) server.enqueue(sim::Time::us(1.0), [] {});
  simctx.run();
  EXPECT_EQ(server.busy_time(), sim::Time::us(4.0));
}

TEST(SerialServerMultiWorker, SingleWorkerDefaultUnchanged) {
  sim::Simulator simctx;
  SerialServer server{simctx};
  EXPECT_EQ(server.workers(), 1);
}

TEST(SerialServerMultiWorker, RejectsZeroWorkers) {
  sim::Simulator simctx;
  EXPECT_THROW((SerialServer{simctx, 0}), std::invalid_argument);
}

TEST(SerialServerMultiWorker, LowPriorityStillYieldsToNormalLane) {
  sim::Simulator simctx;
  SerialServer server{simctx, 2};
  std::vector<int> order;
  // Saturate both workers, then queue one low and one normal task: the
  // normal one must start first when a worker frees.
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(0); });
  server.enqueue(sim::Time::us(1.0), [&] { order.push_back(1); });
  server.enqueue_low(sim::Time::us(1.0), [&] { order.push_back(3); });
  server.enqueue(sim::Time::us(0.5), [&] { order.push_back(2); });
  simctx.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_LT(std::find(order.begin(), order.end(), 2) - order.begin(),
            std::find(order.begin(), order.end(), 3) - order.begin());
}

// --- typed jobs mixed with continuations ---------------------------------
//
// The ordering contract: jobs start in FIFO order per lane, the normal
// lane before the low lane, enqueue_front ahead of queued (but behind
// in-service) work; a job runs before the server picks its next one, so
// work it enqueues lands behind everything already queued. Typed jobs and
// continuations share that one order.

/// Runs typed jobs by logging (packet index, time) into a shared log and
/// calling an optional per-job hook; continuations log with their own id.
struct Recorder final : JobRunner {
  sim::Simulator& simctx;
  std::vector<std::pair<int, sim::Time>>& log;
  std::function<void(const Job&)> hook;
  Recorder(sim::Simulator& s, std::vector<std::pair<int, sim::Time>>& l)
      : simctx{s}, log{l} {}
  void run_job(const Job& job) override {
    log.emplace_back(job.packet.packet_index, simctx.now());
    if (hook) hook(job);
  }
};

Job typed(double us, int id) {
  Job job;
  job.duration = sim::Time::us(us);
  job.kind = JobKind::kInject;
  job.packet.packet_index = id;
  return job;
}

struct JobRig {
  sim::Simulator simctx;
  std::vector<std::pair<int, sim::Time>> log;
  Recorder runner{simctx, log};
  SerialServer server;
  explicit JobRig(std::int32_t workers = 1)
      : server{simctx, workers, &runner} {}

  /// A continuation that logs `id`.
  auto note(int id) {
    return [this, id] { log.emplace_back(id, simctx.now()); };
  }
  [[nodiscard]] std::vector<int> order() const {
    std::vector<int> ids;
    for (const auto& [id, t] : log) ids.push_back(id);
    return ids;
  }
};

TEST(SerialServerJobs, TypedAndContinuationJobsStartFifo) {
  JobRig rig;
  rig.server.enqueue(typed(1.0, 0));
  rig.server.enqueue(sim::Time::us(1.0), rig.note(1));
  rig.server.enqueue(typed(2.0, 2));
  rig.server.enqueue(sim::Time::us(1.0), rig.note(3));
  rig.simctx.run();
  const std::vector<std::pair<int, sim::Time>> want{
      {0, sim::Time::us(1.0)},
      {1, sim::Time::us(2.0)},
      {2, sim::Time::us(4.0)},
      {3, sim::Time::us(5.0)},
  };
  EXPECT_EQ(rig.log, want);
  EXPECT_EQ(rig.server.parked(), 0u);
}

TEST(SerialServerJobs, TypedJobCarriesItsPacket) {
  JobRig rig;
  Job job = typed(1.0, 7);
  job.packet.message = 42;
  job.packet.dest = 3;
  job.packet.tag = -5;
  net::Packet seen;
  rig.runner.hook = [&](const Job& j) { seen = j.packet; };
  rig.server.enqueue(job);
  rig.simctx.run();
  EXPECT_EQ(seen.message, 42);
  EXPECT_EQ(seen.packet_index, 7);
  EXPECT_EQ(seen.dest, 3);
  EXPECT_EQ(seen.tag, -5);
}

TEST(SerialServerJobs, EnqueueFrontLandsBehindInServiceWork) {
  JobRig rig;
  rig.server.enqueue(typed(2.0, 0));
  rig.server.enqueue(typed(1.0, 1));
  // Mid-service: front of the queue, but job 0 keeps its worker.
  rig.simctx.schedule_at(sim::Time::us(1.0), [&] {
    rig.server.enqueue_front(sim::Time::us(1.0), rig.note(2));
  });
  rig.simctx.run();
  EXPECT_EQ(rig.order(), (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(rig.log[1].second, sim::Time::us(3.0));
}

TEST(SerialServerJobs, EnqueueFrontFromACompletionRunsNext) {
  // A job's completion runs before the server picks its next job, so a
  // front insert made there overtakes work that was already queued.
  JobRig rig;
  rig.runner.hook = [&](const Job& j) {
    if (j.packet.packet_index == 0) rig.server.enqueue_front(typed(1.0, 2));
  };
  rig.server.enqueue(typed(1.0, 0));
  rig.server.enqueue(sim::Time::us(1.0), rig.note(1));
  rig.server.enqueue(sim::Time::us(1.0), [&] {
    rig.log.emplace_back(3, rig.simctx.now());
    rig.server.enqueue_front(sim::Time::us(1.0), rig.note(5));
  });
  rig.server.enqueue(typed(1.0, 4));
  rig.simctx.run();
  EXPECT_EQ(rig.order(), (std::vector<int>{0, 2, 1, 3, 5, 4}));
}

TEST(SerialServerJobs, LowLaneYieldsToNormalLane) {
  JobRig rig;
  rig.server.enqueue_low(typed(1.0, 0));  // idle server: starts at once
  rig.server.enqueue_low(sim::Time::us(1.0), rig.note(3));
  rig.server.enqueue_low(typed(1.0, 4));
  rig.server.enqueue(typed(1.0, 1));
  rig.server.enqueue(sim::Time::us(1.0), rig.note(2));
  rig.simctx.run();
  EXPECT_EQ(rig.order(), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SerialServerJobs, WorkFromACompletionLandsBehindQueuedWork) {
  JobRig rig;
  rig.runner.hook = [&](const Job& j) {
    if (j.packet.packet_index != 0) return;
    rig.server.enqueue(sim::Time::us(1.0), rig.note(3));
    rig.server.enqueue(typed(1.0, 4));
  };
  rig.server.enqueue(typed(1.0, 0));
  rig.server.enqueue(sim::Time::us(1.0), [&] {
    rig.log.emplace_back(1, rig.simctx.now());
    rig.server.enqueue(typed(1.0, 5));
  });
  rig.server.enqueue(typed(1.0, 2));
  rig.simctx.run();
  EXPECT_EQ(rig.order(), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(rig.log.back().second, sim::Time::us(6.0));
}

TEST(SerialServerJobs, QueueGrowthAcrossAWrappedRingKeepsOrder) {
  // Front inserts wrap the ring's head; growing it then must keep the
  // queue in order.
  JobRig rig;
  rig.server.enqueue(typed(1.0, 0));  // in service
  for (int i = 0; i < 5; ++i) rig.server.enqueue(typed(1.0, 10 + i));
  for (int i = 0; i < 3; ++i) rig.server.enqueue_front(typed(1.0, 3 - i));
  for (int i = 0; i < 20; ++i) {
    rig.server.enqueue(sim::Time::us(1.0), rig.note(20 + i));
  }
  rig.simctx.run();
  std::vector<int> want{0, 1, 2, 3, 10, 11, 12, 13, 14};
  for (int i = 0; i < 20; ++i) want.push_back(20 + i);
  EXPECT_EQ(rig.order(), want);
  EXPECT_EQ(rig.server.queued(), 0u);
  EXPECT_EQ(rig.server.parked(), 0u);
}

TEST(SerialServerJobs, MultiWorkerOutOfOrderCompletionsReuseSlots) {
  // Three workers, unequal durations: completions arrive out of start
  // order and freed in-service slots are refilled while others still
  // run. Every job must complete exactly once, as itself, on time.
  // Service intervals (us): 0: 0-5, 1: 0-1, 2: 0-3, 3: 1-2, 4: 2-6,
  // 5: 3-3.5, 6: 3.5-4.5, 7: 4.5-6.5.
  JobRig rig{3};
  rig.server.enqueue(typed(5.0, 0));
  rig.server.enqueue(sim::Time::us(1.0), rig.note(1));
  rig.server.enqueue(typed(3.0, 2));
  rig.server.enqueue(typed(1.0, 3));
  rig.server.enqueue(sim::Time::us(4.0), rig.note(4));
  rig.server.enqueue(typed(0.5, 5));
  rig.server.enqueue(sim::Time::us(1.0), rig.note(6));
  rig.server.enqueue(typed(2.0, 7));
  rig.simctx.run();
  const std::vector<std::pair<int, sim::Time>> want{
      {1, sim::Time::us(1.0)}, {3, sim::Time::us(2.0)},
      {2, sim::Time::us(3.0)}, {5, sim::Time::us(3.5)},
      {6, sim::Time::us(4.5)}, {0, sim::Time::us(5.0)},
      {4, sim::Time::us(6.0)}, {7, sim::Time::us(6.5)},
  };
  EXPECT_EQ(rig.log, want);
  EXPECT_EQ(rig.server.busy_time(), sim::Time::us(17.5));
  EXPECT_FALSE(rig.server.busy());
  EXPECT_EQ(rig.server.parked(), 0u);
}

}  // namespace
}  // namespace nimcast::netif
