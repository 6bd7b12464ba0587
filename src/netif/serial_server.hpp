#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "network/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_time.hpp"
#include "sim/simulator.hpp"

namespace nimcast::netif {

/// What a server job does when its service time is over.
enum class JobKind : std::uint8_t {
  /// Run the callable parked in `Job::slot`.
  kContinuation,
  /// Receive-process `packet` (t_rcv).
  kReceive,
  /// Inject `packet` and release one held copy of it, then run the
  /// continuation parked in `slot` if `slot >= 0`.
  kSend,
  /// Inject `packet`, no buffer accounting.
  kInject,
};

/// One unit of server work. Trivially copyable: the lanes are plain ring
/// buffers and a packet step allocates nothing.
struct Job {
  sim::Time duration;
  JobKind kind = JobKind::kContinuation;
  std::int32_t slot = -1;
  net::Packet packet;
};

/// Runs a server's typed jobs: the one dispatch switch of the firmware
/// that owns the server.
class JobRunner {
 public:
  virtual void run_job(const Job& job) = 0;

 protected:
  ~JobRunner() = default;
};

/// A serializing work server: models a processing element (an NI
/// coprocessor, or a host CPU doing communication software) that executes
/// queued jobs FIFO.
///
/// Each job occupies one worker for its duration, then runs (at zero
/// additional cost — a job typically hands a packet to the network or
/// notifies the engine). A job runs before the server picks its next
/// one, so work it enqueues lands behind everything already queued, or
/// with enqueue_front ahead of it. Typed jobs go to the server's
/// JobRunner; work without a kind of its own is a continuation, a
/// callable parked in a reused slab (inline, or in the simulator's
/// callback pool) that the server runs itself. The server holds each
/// in-service job, so its completion event captures only {this, worker}.
///
/// `workers` > 1 models a multi-engine NI (multiple DMA/send engines à
/// la modern multi-queue NICs): up to that many jobs run concurrently,
/// still started in FIFO order. The paper's 1997 NIs are workers == 1.
class SerialServer {
 public:
  explicit SerialServer(sim::Simulator& simctx, std::int32_t workers = 1,
                        JobRunner* runner = nullptr);

  SerialServer(const SerialServer&) = delete;
  SerialServer& operator=(const SerialServer&) = delete;

  /// Appends a job to the normal lane.
  void enqueue(const Job& job) {
    normal_.push_back(job);
    start_next();
  }
  /// Inserts a job ahead of all queued (but behind the in-service) work.
  void enqueue_front(const Job& job) {
    normal_.push_front(job);
    start_next();
  }
  /// Appends to the *low-priority* lane, served only when the normal
  /// lane is empty. This models NI firmware that finishes forwarding the
  /// current packet before polling the receive queue for the next one —
  /// the structure of the paper's FCFS/FPFS pseudo-code (Figs. 6, 7):
  /// receive processing is enqueued here, send work in the normal lane.
  void enqueue_low(const Job& job) {
    low_.push_back(job);
    start_next();
  }

  /// Continuation forms: `on_done` runs when a job of `duration` ends.
  template <typename F>
  void enqueue(sim::Time duration, F&& on_done) {
    enqueue(continuation(duration, std::forward<F>(on_done)));
  }
  template <typename F>
  void enqueue_front(sim::Time duration, F&& on_done) {
    enqueue_front(continuation(duration, std::forward<F>(on_done)));
  }
  template <typename F>
  void enqueue_low(sim::Time duration, F&& on_done) {
    enqueue_low(continuation(duration, std::forward<F>(on_done)));
  }

  /// Parks `f` until run_parked(returned slot).
  template <typename F>
  [[nodiscard]] std::int32_t park(F&& f) {
    if (free_parked_.empty()) {
      free_parked_.push_back(static_cast<std::int32_t>(parked_.size()));
      parked_.emplace_back();
    }
    const std::int32_t slot = free_parked_.back();
    free_parked_.pop_back();
    parked_[static_cast<std::size_t>(slot)].emplace(std::forward<F>(f),
                                                    sim_.callback_pool());
    return slot;
  }
  /// Runs and frees a parked callable.
  void run_parked(std::int32_t slot);

  [[nodiscard]] bool busy() const { return active_ > 0; }
  /// Jobs currently occupying a worker (<= workers()).
  [[nodiscard]] std::int32_t active() const { return active_; }
  [[nodiscard]] std::int32_t workers() const { return workers_; }
  [[nodiscard]] std::size_t queued() const {
    return normal_.size() + low_.size();
  }
  /// Continuations parked and not yet run.
  [[nodiscard]] std::size_t parked() const {
    return parked_.size() - free_parked_.size();
  }
  /// Total time this server has spent executing jobs.
  [[nodiscard]] sim::Time busy_time() const { return busy_time_; }

 private:
  /// FIFO ring of jobs, pushable at both ends; capacity 0 or a power of 2.
  class Lane {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    void push_back(const Job& job) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_++) & (buf_.size() - 1)] = job;
    }
    void push_front(const Job& job) {
      if (size_ == buf_.size()) grow();
      head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
      buf_[head_] = job;
      ++size_;
    }
    Job pop_front() {
      const Job job = buf_[head_];
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
      return job;
    }

   private:
    void grow();
    std::vector<Job> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  template <typename F>
  Job continuation(sim::Time duration, F&& on_done) {
    return Job{duration, JobKind::kContinuation,
               park(std::forward<F>(on_done)), {}};
  }
  void start_next();
  void complete(std::int32_t worker);

  sim::Simulator& sim_;
  JobRunner* runner_;
  std::int32_t workers_;
  Lane normal_;
  Lane low_;
  std::vector<Job> in_service_;  // one per worker
  std::vector<std::int32_t> free_workers_;
  std::vector<sim::EventCallback> parked_;
  std::vector<std::int32_t> free_parked_;
  std::int32_t active_ = 0;
  sim::Time busy_time_ = sim::Time::zero();
};

}  // namespace nimcast::netif
