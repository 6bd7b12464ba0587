#include "sim/sharded.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace nimcast::sim {

namespace {
/// Below this many merged dispatches the ordinal tables are not worth
/// trimming; above it, trim once they dwarf the pending population.
constexpr std::uint64_t kCompactMinEntries = 1u << 16;
}  // namespace

ShardedSimulator::ShardedSimulator(int num_shards, Time lookahead)
    : lookahead_{lookahead} {
  if (num_shards < 1) {
    throw std::invalid_argument("ShardedSimulator: num_shards < 1");
  }
  if (lookahead <= Time::zero()) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be > 0");
  }
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    auto cell = std::make_unique<Cell>();
    cell->sim.enable_shard_order();
    cell->sim.set_schedule_context(&ctx_);
    shards_.push_back(std::move(cell));
  }
  const auto S = static_cast<std::size_t>(num_shards);
  ord_table_.resize(S);
  ord_base_.assign(S, 0);
  mail_keys_.resize(S);
  // The double-buffered exchange: one batch fills at the barrier while
  // the merge worker consumes the other.
  for (int i = 0; i < 2; ++i) {
    Batch b;
    b.recs.resize(S);
    free_batches_.push_back(std::move(b));
  }
  if (const char* eager = std::getenv("NIMCAST_EAGER_MERGE");
      eager != nullptr && eager[0] != '\0' &&
      !(eager[0] == '0' && eager[1] == '\0')) {
    eager_merge_ = true;
  }
}

ShardedSimulator::~ShardedSimulator() = default;

std::size_t ShardedSimulator::checked(int s) const {
  if (s < 0 || s >= num_shards()) {
    throw std::out_of_range("ShardedSimulator: shard index out of range");
  }
  return static_cast<std::size_t>(s);
}

void ShardedSimulator::post(int from, int to, Time when,
                            std::function<void()> fn, EventId* bind_slot) {
  static_cast<void>(checked(to));
  Cell& cell = *shards_[checked(from)];
  const Simulator::PostKey key = cell.sim.alloc_post_key();
  cell.outbox.push_back(
      Mail{to, when, key.hi, key.lo, key.provisional, std::move(fn),
           bind_slot});
}

void ShardedSimulator::schedule_global(Time at, std::function<void()> fn) {
  // hi = 0 sorts registration-keyed globals (faults) ahead of any
  // hop-replay global at the same instant — matching the serial engine,
  // where fault events were scheduled at construction with the lowest
  // insertion order.
  schedule_global_keyed(at, 0, global_seq_++, std::move(fn));
}

void ShardedSimulator::schedule_global_keyed(Time at, std::uint64_t hi,
                                             std::uint64_t lo,
                                             std::function<void()> fn) {
  const std::lock_guard lock{globals_mutex_};
  globals_.push_back(GlobalEvent{at, hi, lo, std::move(fn)});
}

void ShardedSimulator::flush_outboxes() {
  for (auto& keys : mail_keys_) keys.clear();
  bool any_provisional = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Cell& cell = *shards_[s];
    for (Mail& m : cell.outbox) {
      // The conservative contract: mail must land strictly after the
      // last window any shard has executed, or the receiver may already
      // have dispatched past it.
      if (m.when <= ran_through_) {
        throw std::logic_error(
            "ShardedSimulator: cross-shard post violates lookahead");
      }
      // Mail posted during the just-closed window carries a provisional
      // lineage key; the merge worker has assigned the window's ordinals
      // by the time the flush runs (plan_window joins first).
      std::uint64_t lo = m.lo;
      if (m.provisional) {
        lo = resolve_lo(s, m.lo);
        mail_keys_[static_cast<std::size_t>(m.to)].emplace_back(m.when, m.hi);
        any_provisional = true;
      }
      const EventId id = shards_[static_cast<std::size_t>(m.to)]
                             ->sim.schedule_at_keyed(m.when, m.hi, lo,
                                                     std::move(m.fn));
      if (m.bind_slot != nullptr) *m.bind_slot = id;
    }
    cell.outbox.clear();
  }
  if (!any_provisional) return;
  // A mailed event can tie a still-provisional local key at the same
  // (time, hi): both schedule calls happened at the same instant, in the
  // window just closed, so the local key's parent ordinal is known —
  // finalize exactly the tying keys so the receiver's queue orders them
  // against the mailed final key in true serial order. Everything else
  // stays provisional (order-correct locally) until a compaction.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& keys = mail_keys_[s];
    if (keys.empty()) continue;
    shards_[s]->sim.rekey_provisional_if(
        [&keys](Time t, std::uint64_t hi) {
          for (const auto& k : keys) {
            if (k.first == t && k.second == hi) return true;
          }
          return false;
        },
        [this, s](std::uint64_t lo) { return resolve_lo(s, lo); });
  }
}

std::uint64_t ShardedSimulator::resolve_lo(std::size_t s,
                                           std::uint64_t lo) const {
  if ((lo & Simulator::kProvisionalBit) == 0) return lo;
  const std::uint64_t parent =
      (lo & ~Simulator::kProvisionalBit) >> Simulator::kCallIdxBits;
  assert(parent >= ord_base_[s] &&
         parent - ord_base_[s] < ord_table_[s].size());
  return (ord_table_[s][parent - ord_base_[s]] << Simulator::kCallIdxBits) |
         (lo & Simulator::kCallIdxMask);
}

void ShardedSimulator::publish_window() {
  Batch b;
  {
    std::unique_lock lk{merge_mutex_};
    // Double-buffer backpressure: wait for the worker to recycle a batch
    // if both are in flight.
    merge_done_cv_.wait(lk, [this] { return !free_batches_.empty(); });
    b = std::move(free_batches_.back());
    free_batches_.pop_back();
  }
  bool any = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->sim.drain_window_records(b.recs[s]);
    any = any || !b.recs[s].empty();
  }
  if (!any) {
    const std::lock_guard lk{merge_mutex_};
    free_batches_.push_back(std::move(b));
    return;
  }
  {
    const std::lock_guard lk{merge_mutex_};
    merge_queue_.push_back(std::move(b));
  }
  merge_cv_.notify_one();
}

void ShardedSimulator::join_merges() {
  std::unique_lock lk{merge_mutex_};
  merge_done_cv_.wait(
      lk, [this] { return merge_queue_.empty() && !merge_busy_; });
  if (merge_error_ != nullptr) {
    const std::exception_ptr e = merge_error_;
    merge_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ShardedSimulator::merge_batch(const Batch& b) {
  // K-way merge of the per-shard dispatch streams by firing key. Each
  // stream is already internally ordered (it *is* that shard's dispatch
  // order), and a record's final lineage key is computable the moment it
  // reaches the head of its stream: a provisional key's parent is an
  // earlier dispatch of the same shard, so its ordinal is already in the
  // table. The merged position is the event's global dispatch ordinal —
  // the serial engine's dispatch sequence number.
  const std::size_t S = shards_.size();
  struct Head {
    std::size_t cur = 0;
    Time time{};
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    bool live = false;
  };
  std::vector<Head> heads(S);
  auto load = [&](std::size_t s) {
    Head& h = heads[s];
    h.live = h.cur < b.recs[s].size();
    if (!h.live) return;
    const Simulator::DispatchRecord& r = b.recs[s][h.cur];
    h.time = r.time;
    h.hi = r.hi;
    h.lo = resolve_lo(s, r.lo);
  };
  for (std::size_t s = 0; s < S; ++s) load(s);
  for (;;) {
    std::size_t best = S;
    for (std::size_t s = 0; s < S; ++s) {
      const Head& h = heads[s];
      if (!h.live) continue;
      if (best == S || h.time < heads[best].time ||
          (h.time == heads[best].time &&
           (h.hi < heads[best].hi ||
            (h.hi == heads[best].hi && h.lo < heads[best].lo)))) {
        best = s;
      }
    }
    if (best == S) break;
    ord_table_[best].push_back(ctx_.next_ordinal++);
    ++heads[best].cur;
    load(best);
  }
}

void ShardedSimulator::merge_worker() {
  std::unique_lock lk{merge_mutex_};
  for (;;) {
    merge_cv_.wait(lk,
                   [this] { return merge_stop_ || !merge_queue_.empty(); });
    if (merge_queue_.empty()) return;  // stop requested and fully drained
    Batch b = std::move(merge_queue_.front());
    merge_queue_.pop_front();
    merge_busy_ = true;
    lk.unlock();
    std::uint64_t produced = 0;
    try {
      for (const auto& r : b.recs) produced += r.size();
      merge_batch(b);
    } catch (...) {
      lk.lock();
      if (merge_error_ == nullptr) merge_error_ = std::current_exception();
      lk.unlock();
    }
    for (auto& r : b.recs) r.clear();
    lk.lock();
    merged_entries_ += produced;
    merge_busy_ = false;
    free_batches_.push_back(std::move(b));
    merge_done_cv_.notify_all();
  }
}

void ShardedSimulator::compact_tables() {
  // Requires: merges joined (tables complete, worker idle), outboxes
  // empty. Afterwards every pending key is final, so the tables can be
  // dropped and between-run schedule calls (which allocate final keys)
  // compare correctly against everything still pending.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (ord_table_[s].empty()) continue;
    shards_[s]->sim.rekey_provisional(
        [this, s](std::uint64_t lo) { return resolve_lo(s, lo); });
    ord_base_[s] += ord_table_[s].size();
    ord_table_[s].clear();
  }
}

void ShardedSimulator::maybe_compact() {
  std::uint64_t merged;
  {
    const std::lock_guard lk{merge_mutex_};
    merged = merged_entries_;
  }
  if (merged < kCompactMinEntries) return;
  std::uint64_t pending = 0;
  for (const auto& cell : shards_) pending += cell->sim.pending_events();
  if (merged < 8 * pending) return;
  join_merges();
  compact_tables();
  const std::lock_guard lk{merge_mutex_};
  merged_entries_ = 0;
}

std::uint64_t ShardedSimulator::total_dispatched() const {
  std::uint64_t total = 0;
  for (const auto& cell : shards_) total += cell->sim.events_dispatched();
  return total;
}

void ShardedSimulator::sort_pending_globals() {
  // Orders the not-yet-fired globals. Runs single-threaded (barrier
  // completion), but appends from the just-finished window still need
  // the fence the mutex provides. Re-run after every global fires: a
  // barrier-phase callback may register further keyed globals.
  const std::lock_guard lock{globals_mutex_};
  std::sort(globals_.begin() + static_cast<std::ptrdiff_t>(next_global_),
            globals_.end(), [](const GlobalEvent& a, const GlobalEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.hi != b.hi) return a.hi < b.hi;
              return a.lo < b.lo;
            });
}

bool ShardedSimulator::plan_window(Time& window_end) {
  publish_window();
  if (eager_merge_) join_merges();
  bool mail_pending = false;
  for (const auto& cell : shards_) {
    if (!cell->outbox.empty()) {
      mail_pending = true;
      break;
    }
  }
  if (mail_pending) {
    // Mail finalization consumes the closed window's ordinals; this is
    // the only inter-window work that has to wait for the merge.
    join_merges();
    flush_outboxes();
  }
  for (;;) {
    sort_pending_globals();
    Time next = Time::max();
    for (const auto& cell : shards_) {
      if (!cell->sim.idle()) {
        next = std::min(next, cell->sim.next_event_time());
      }
    }
    const Time global_at = next_global_ < globals_.size()
                               ? globals_[next_global_].at
                               : Time::max();
    if (global_at <= next && global_at != Time::max()) {
      // Serial equivalence: fault events were scheduled at construction
      // (lowest insertion order), so they fire before any runtime event
      // at the same instant — here, before the window that would run
      // those events. The global is a dispatch in its own right: its
      // ordinal must follow every already-dispatched event's, so the
      // merge backlog is joined first.
      join_merges();
      for (auto& cell : shards_) cell->sim.advance_to(global_at);
      ctx_.per_call = false;
      ctx_.pinned_ordinal = ctx_.next_ordinal++;
      ctx_.idx = 0;
      globals_[next_global_].fn();
      ctx_.per_call = true;
      ++next_global_;
      ++globals_fired_;
      last_global_ = std::max(last_global_, global_at);
      flush_outboxes();
      continue;
    }
    if (next == Time::max()) return false;  // quiescent, no globals left
    // Window [next, next + lookahead): run_until is inclusive, so end one
    // tick short; clamp at the next global event the same way.
    Time end = next + lookahead_;
    if (global_at < end) end = global_at;
    window_end = end - Time::ns(1);
    ran_through_ = window_end;
    ++windows_planned_;
    maybe_compact();
    return true;
  }
}

std::uint64_t ShardedSimulator::run(int threads, std::uint64_t event_limit) {
  const int S = num_shards();
  threads = std::clamp(threads, 1, S);
  const std::uint64_t start_dispatched = total_dispatched();

  {
    const std::lock_guard lk{merge_mutex_};
    merge_stop_ = false;
  }
  std::thread merger{[this] { merge_worker(); }};

  struct Control {
    Time window_end{};
    bool done = false;
    std::exception_ptr error;
    std::mutex error_mutex;
  } ctl;

  auto note_error = [&ctl]() noexcept {
    const std::lock_guard lock{ctl.error_mutex};
    if (!ctl.error) ctl.error = std::current_exception();
  };

  // Barrier completion: the single-threaded inter-window step. Must not
  // throw (std::barrier would terminate); errors park in ctl and stop
  // the loop. Its wall time is the window-barrier cost the bench
  // reports — the quantity the overlapped merge shrinks.
  auto on_barrier = [&]() noexcept {
    if (ctl.done) return;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      if (ctl.error != nullptr ||
          total_dispatched() - start_dispatched > event_limit) {
        if (ctl.error == nullptr) {
          throw std::runtime_error(
              "ShardedSimulator::run: event limit exceeded");
        }
        ctl.done = true;
      } else {
        ctl.done = !plan_window(ctl.window_end);
      }
    } catch (...) {
      note_error();
      ctl.done = true;
    }
    barrier_wall_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  std::barrier bar{threads, on_barrier};

  // Thread i executes the contiguous shard block [lo, hi): with threads
  // == num_shards that is exactly one shard per thread.
  auto worker = [&](int i) {
    const int lo = i * S / threads;
    const int hi = (i + 1) * S / threads;
    for (;;) {
      bar.arrive_and_wait();  // completion plans the next window
      if (ctl.done) return;
      try {
        for (int s = lo; s < hi; ++s) {
          shards_[static_cast<std::size_t>(s)]->sim.run_until(
              ctl.window_end, event_limit);
        }
      } catch (...) {
        note_error();
      }
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 1; i < threads; ++i) pool.emplace_back(worker, i);
    worker(0);
  }  // jthreads join here

  // Drain and stop the merge worker, then finalize every pending key so
  // schedule calls made between runs compare correctly.
  {
    const std::lock_guard lk{merge_mutex_};
    merge_stop_ = true;
  }
  merge_cv_.notify_one();
  merger.join();
  {
    const std::lock_guard lk{merge_mutex_};
    if (merge_error_ != nullptr && ctl.error == nullptr) {
      ctl.error = merge_error_;
    }
    merge_error_ = nullptr;
  }
  if (ctl.error) std::rethrow_exception(ctl.error);
  compact_tables();
  {
    const std::lock_guard lk{merge_mutex_};
    merged_entries_ = 0;
  }
  return total_dispatched() - start_dispatched;
}

std::uint64_t ShardedSimulator::events_dispatched() const {
  std::uint64_t total = globals_fired_;
  for (const auto& cell : shards_) {
    total += cell->sim.events_dispatched();
    total -= cell->synthetic;
  }
  return total;
}

Time ShardedSimulator::last_event_time() const {
  Time latest = last_global_;
  for (const auto& cell : shards_) {
    latest = std::max(latest, cell->sim.last_event_time());
  }
  return latest;
}

}  // namespace nimcast::sim
