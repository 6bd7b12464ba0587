#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_pool.hpp"
#include "sim/sim_time.hpp"

namespace nimcast::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Encodes (slot, generation); a default-constructed id never matches.
struct EventId {
  std::uint64_t seq = 0;
  [[nodiscard]] friend bool operator==(EventId, EventId) = default;
};

/// Move-only type-erased callback with small-buffer optimization.
///
/// Callables up to kInlineCapacity bytes live inline in the object (and
/// therefore inline in EventQueue's slot slab — no allocation at all);
/// larger ones are placed in the queue's EventPool, never on the global
/// heap. This is what makes scheduling an event allocation-free on the
/// hot path.
class EventCallback {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  EventCallback() noexcept = default;
  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventCallback");
    ops_->call(obj_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(obj_);
      if (obj_ != inline_storage()) EventPool::release(obj_);
      ops_ = nullptr;
      obj_ = nullptr;
    }
  }

  /// Constructs `f` in place, using `pool` when it does not fit inline.
  template <typename F>
  void emplace(F&& f, EventPool& pool) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "event callback must be invocable as void()");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned event callbacks are not supported");
    reset();
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  std::is_nothrow_move_constructible_v<D>) {
      obj_ = inline_storage();
    } else {
      obj_ = pool.allocate(sizeof(D));
    }
    ::new (obj_) D(std::forward<F>(f));
    ops_ = ops_for<D>();
  }

 private:
  struct Ops {
    void (*call)(void*);
    // Move-constructs into dst and destroys src; used when relocating an
    // inline callback (slab growth, move of the owning EventCallback).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static const Ops* ops_for() {
    static constexpr Ops ops{
        [](void* obj) { (*static_cast<D*>(obj))(); },
        [](void* dst, void* src) noexcept {
          D* from = static_cast<D*>(src);
          ::new (dst) D(std::move(*from));
          from->~D();
        },
        [](void* obj) noexcept { static_cast<D*>(obj)->~D(); }};
    return &ops;
  }

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      obj_ = nullptr;
      return;
    }
    if (other.obj_ == other.inline_storage()) {
      obj_ = inline_storage();
      ops_->relocate(obj_, other.obj_);
    } else {
      obj_ = other.obj_;  // pool chunk: steal the pointer
    }
    other.ops_ = nullptr;
    other.obj_ = nullptr;
  }

  [[nodiscard]] void* inline_storage() noexcept { return inline_; }
  [[nodiscard]] const void* inline_storage() const noexcept { return inline_; }

  const Ops* ops_ = nullptr;
  void* obj_ = nullptr;
  alignas(std::max_align_t) std::byte inline_[kInlineCapacity];
};

/// A time-ordered queue of callbacks.
///
/// Events fire in ascending (time, hi, lo) order. The plain schedule()
/// path uses (0, insertion counter) as the tie-break key, so two events
/// scheduled for the same instant fire in the order they were scheduled.
/// This FIFO tie-break is load-bearing for determinism: NI coprocessors
/// schedule sends at identical times and the paper's disciplines (FCFS,
/// FPFS) are defined by service *order*. schedule_keyed() lets a caller
/// supply the (hi, lo) key explicitly; the sharded simulator passes
/// (schedule-time, lineage key) so that events merged across shard
/// queues keep the order a serial execution would have given them (a
/// serial run's insertion counter is monotone in schedule time, so the
/// two keyings agree whenever schedule times differ; rekey_lo() lets the
/// sharded simulator finalize lineage keys at window barriers once global
/// dispatch ordinals are known).
///
/// Implementation: per-instant buckets over a slab of pooled event
/// slots. The paper's timing model puts events on a coarse grid (fixed NI
/// overheads, t_hop per hop, FPFS waves stepping forward together), so
/// most events land on an instant that is already pending. Each distinct
/// pending instant owns one bucket: a doubly-linked list threaded through
/// the slots' prev/next indices, kept sorted by (hi, lo). A flat
/// open-addressing map finds an instant's bucket, and a small indexed
/// 4-ary min-heap orders the buckets by time. Scheduling is one map probe
/// plus an append at the bucket's tail (a key smaller than the tail's is
/// walked back from the tail, or goes straight to the head when it is
/// smaller than the head's); popping unlinks the head of the earliest
/// bucket. Heap work is paid once per distinct instant — when a bucket is
/// created and when it empties — not once per event. Cancellation
/// unlinks the event and frees its slot immediately (no tombstones), and
/// stale EventIds are rejected by a per-slot generation counter.
/// Scheduling allocates nothing on the hot path (slot and bucket reuse,
/// inline callback storage). Not thread-safe; each worker thread owns its
/// own queue.
class EventQueue {
 public:
  using Callback = EventCallback;

  EventQueue() : pool_{std::make_unique<EventPool>()} {}
  EventQueue(EventQueue&&) noexcept = default;
  EventQueue& operator=(EventQueue&&) noexcept = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `f` at absolute time `when`.
  template <typename F>
  EventId schedule(Time when, F&& f) {
    return schedule_keyed(when, 0, next_order_++, std::forward<F>(f));
  }

  /// Schedules `f` at `when` with an explicit (hi, lo) tie-break key:
  /// events at the same time fire in ascending (hi, lo) order, and equal
  /// keys in the order they were scheduled. Mixing schedule() and
  /// schedule_keyed() on one queue is allowed but the keys then come from
  /// different spaces; callers that need a total order must pick one
  /// keying per queue.
  template <typename F>
  EventId schedule_keyed(Time when, std::uint64_t hi, std::uint64_t lo,
                         F&& f) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slab_[slot];
    try {
      s.cb.emplace(std::forward<F>(f), *pool_);
    } catch (...) {
      release_slot(slot);
      throw;
    }
    assert(s.cb && "scheduling an empty callback");
    s.hi = hi;
    s.lo = lo;
    insert(slot, when);
    return EventId{make_id(slot, s.generation)};
  }

  /// Claims the next plain-FIFO insertion counter without scheduling
  /// anything. The claimed value can be replayed via
  /// schedule_keyed(when, 0, key) at several *distinct* times — a
  /// self-rescheduling chain keeps one stable position in the FIFO
  /// tie-break (after everything scheduled before the claim, before
  /// everything scheduled after it).
  [[nodiscard]] std::uint64_t reserve_order() { return next_order_++; }

  /// Cancels a pending event. Returns false when the event already fired
  /// or was cancelled before. The event is unlinked and its slot freed
  /// immediately, so schedule/cancel churn (e.g. retry timers) does not
  /// grow the queue.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The pool behind oversized callbacks. Callers that park callbacks
  /// outside the queue (netif::SerialServer continuations) place them
  /// here too; they must release them before the queue dies.
  [[nodiscard]] EventPool& pool() { return *pool_; }

  /// Pre-sizes the slot slab and bucket storage for `n` concurrent events.
  void reserve(std::size_t n);

  /// Time of the earliest pending event. Queue must be non-empty.
  [[nodiscard]] Time next_time() const {
    assert(!heap_.empty() && "next_time() on empty queue");
    return heap_.front().time;
  }

  /// Removes and returns the earliest pending event. Queue must be
  /// non-empty. The returned callback may own pool storage; it must be
  /// destroyed before the queue (the simulator's dispatch loop does).
  /// (hi, lo) is the tie-break key the event was scheduled with — the
  /// sharded driver records it to reconstruct global dispatch order.
  struct Fired {
    Time time;
    std::uint64_t hi;
    std::uint64_t lo;
    Callback cb;
  };
  Fired pop();

  /// Applies `fn(time, hi, lo) -> lo` to every pending entry and
  /// re-sorts each bucket in which some key actually changed (a rekey
  /// never moves an event to another instant, so the heap is untouched).
  /// The sharded simulator uses this to replace provisional lineage keys
  /// with final ones — as an amortized compaction pass and, filtered by
  /// (time, hi), when cross-shard mail could tie a provisional key.
  template <typename Fn>
  void rekey_lo(Fn&& fn) {
    for (const HeapEntry& e : heap_) {
      const Bucket& b = buckets_[e.bucket];
      bool changed = false;
      for (std::uint32_t i = b.head; i != kNone; i = slab_[i].next) {
        Slot& s = slab_[i];
        const std::uint64_t lo = fn(b.time, s.hi, s.lo);
        if (lo != s.lo) {
          s.lo = lo;
          changed = true;
        }
      }
      if (changed) resort(e.bucket);
    }
  }

  /// Number of event slots allocated in the slab (live + free-listed).
  /// Exposed for tests: schedule/cancel churn must not grow this beyond
  /// the peak number of *concurrently pending* events.
  [[nodiscard]] std::size_t slot_capacity() const { return slab_.size(); }

  /// Number of instant buckets allocated (live + free-listed); bounded
  /// like slot_capacity() by the peak number of pending events.
  [[nodiscard]] std::size_t bucket_capacity() const { return buckets_.size(); }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One pending (or free-listed) event. prev/next link the slots of one
  /// bucket; a free slot's `next` links the slot free list.
  struct Slot {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::uint32_t generation = 1;
    std::uint32_t bucket = kNone;  // kNone while the slot is free
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
    EventCallback cb;
  };
  /// The pending events of one instant, head to tail in (hi, lo) order.
  /// A free bucket's `head` links the bucket free list.
  struct Bucket {
    Time time;
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t heap_index = kNone;
  };
  struct HeapEntry {
    Time time;
    std::uint32_t bucket;
  };
  /// Open-addressing (linear probing) map entry: instant -> bucket.
  struct MapEntry {
    Time::rep time = 0;
    std::uint32_t bucket = kNone;  // kNone marks an empty entry
  };

  static std::uint64_t make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(generation) << 32) | slot;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void insert(std::uint32_t slot, Time when);
  void unlink(std::uint32_t slot);
  void resort(std::uint32_t bucket);

  std::uint32_t bucket_for(Time when);
  void drop_bucket(std::uint32_t bucket);
  [[nodiscard]] std::size_t home(Time::rep time) const;
  void map_erase(Time::rep time);
  void map_grow();

  void heap_remove(std::size_t index);
  std::size_t sift_up(std::size_t index);
  void sift_down(std::size_t index);

  std::vector<Slot> slab_;
  std::vector<Bucket> buckets_;
  std::vector<HeapEntry> heap_;
  std::vector<MapEntry> map_;
  std::unique_ptr<EventPool> pool_;
  std::uint64_t next_order_ = 1;
  std::size_t size_ = 0;
  std::uint32_t free_slot_ = kNone;
  std::uint32_t free_bucket_ = kNone;
  unsigned map_shift_ = 64;  // 64 - log2(map_.size())
};

}  // namespace nimcast::sim
