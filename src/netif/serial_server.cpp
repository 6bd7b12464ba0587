#include "netif/serial_server.hpp"

#include <algorithm>

namespace nimcast::netif {

SerialServer::SerialServer(sim::Simulator& simctx, std::int32_t workers,
                           JobRunner* runner)
    : sim_{simctx}, runner_{runner}, workers_{workers} {
  if (workers < 1) {
    throw std::invalid_argument("SerialServer: workers < 1");
  }
  in_service_.resize(static_cast<std::size_t>(workers));
  for (std::int32_t w = workers - 1; w >= 0; --w) free_workers_.push_back(w);
}

void SerialServer::run_parked(std::int32_t slot) {
  // Move the callable out first: it may park more work, which can grow
  // (and relocate) the slab or reuse this very slot.
  sim::EventCallback fn = std::move(parked_[static_cast<std::size_t>(slot)]);
  free_parked_.push_back(slot);
  fn();
}

void SerialServer::start_next() {
  while (active_ < workers_) {
    Lane& source = normal_.size() > 0 ? normal_ : low_;
    if (source.size() == 0) return;
    const std::int32_t w = free_workers_.back();
    free_workers_.pop_back();
    Job& job = in_service_[static_cast<std::size_t>(w)];
    job = source.pop_front();
    ++active_;
    busy_time_ += job.duration;
    sim_.schedule_in(job.duration, [this, w] { complete(w); });
  }
}

void SerialServer::complete(std::int32_t worker) {
  // Run the job before dequeuing further work so a job it enqueues lands
  // behind everything already queued. The worker stays claimed while it
  // runs: work it starts on a free engine cannot overwrite it.
  const Job job = in_service_[static_cast<std::size_t>(worker)];
  if (job.kind == JobKind::kContinuation) {
    run_parked(job.slot);
  } else {
    runner_->run_job(job);
  }
  free_workers_.push_back(worker);
  --active_;
  start_next();
}

void SerialServer::Lane::grow() {
  std::vector<Job> bigger(std::max<std::size_t>(8, buf_.size() * 2));
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
  }
  buf_ = std::move(bigger);
  head_ = 0;
}

}  // namespace nimcast::netif
