#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace nimcast::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_slot_ != kNone) {
    const std::uint32_t slot = free_slot_;
    free_slot_ = slab_[slot].next;
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slab_[slot];
  s.cb.reset();
  s.bucket = kNone;
  ++s.generation;  // invalidates every outstanding EventId for this slot
  s.next = free_slot_;
  free_slot_ = slot;
}

void EventQueue::insert(std::uint32_t slot, Time when) {
  const std::uint32_t b = bucket_for(when);
  Bucket& bk = buckets_[b];
  Slot& s = slab_[slot];
  s.bucket = b;
  ++size_;
  const auto before = [&s](const Slot& o) {
    return s.hi != o.hi ? s.hi < o.hi : s.lo < o.lo;
  };
  std::uint32_t after = bk.tail;  // insert after this slot (kNone: head)
  if (after != kNone && before(slab_[after])) {
    if (before(slab_[bk.head])) {
      after = kNone;
    } else {
      // The head does not sort after s, so the walk stops at or before it.
      do {
        after = slab_[after].prev;
      } while (before(slab_[after]));
    }
  }
  s.prev = after;
  s.next = after == kNone ? bk.head : slab_[after].next;
  (s.prev == kNone ? bk.head : slab_[s.prev].next) = slot;
  (s.next == kNone ? bk.tail : slab_[s.next].prev) = slot;
}

void EventQueue::unlink(std::uint32_t slot) {
  const Slot& s = slab_[slot];
  Bucket& bk = buckets_[s.bucket];
  (s.prev == kNone ? bk.head : slab_[s.prev].next) = s.next;
  (s.next == kNone ? bk.tail : slab_[s.next].prev) = s.prev;
  --size_;
  if (bk.head == kNone) drop_bucket(s.bucket);
}

void EventQueue::resort(std::uint32_t bucket) {
  Bucket& bk = buckets_[bucket];
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = bk.head; i != kNone; i = slab_[i].next) {
    order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     const Slot& x = slab_[a];
                     const Slot& y = slab_[b];
                     return x.hi != y.hi ? x.hi < y.hi : x.lo < y.lo;
                   });
  std::uint32_t prev = kNone;
  for (const std::uint32_t i : order) {
    slab_[i].prev = prev;
    (prev == kNone ? bk.head : slab_[prev].next) = i;
    prev = i;
  }
  slab_[prev].next = kNone;
  bk.tail = prev;
}

// ---------------------------------------------------------------------------
// Instant -> bucket map and the bucket lifecycle.

std::size_t EventQueue::home(Time::rep time) const {
  // Fibonacci hashing: instants are multiples of coarse periods (t_hop,
  // the NI overheads), so the multiply spreads them over the high bits.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(time) * 0x9E3779B97F4A7C15ull) >>
      map_shift_);
}

std::uint32_t EventQueue::bucket_for(Time when) {
  // Load factor <= 1/2 keeps linear-probe runs short.
  if (2 * (heap_.size() + 1) > map_.size()) map_grow();
  const std::size_t mask = map_.size() - 1;
  const Time::rep t = when.count_ns();
  std::size_t i = home(t);
  for (; map_[i].bucket != kNone; i = (i + 1) & mask) {
    if (map_[i].time == t) return map_[i].bucket;
  }
  std::uint32_t b = free_bucket_;
  if (b != kNone) {
    free_bucket_ = buckets_[b].head;
  } else {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  map_[i] = MapEntry{t, b};
  buckets_[b] = Bucket{when, kNone, kNone, kNone};
  heap_.push_back(HeapEntry{when, b});
  sift_up(heap_.size() - 1);
  return b;
}

void EventQueue::drop_bucket(std::uint32_t bucket) {
  Bucket& bk = buckets_[bucket];
  heap_remove(bk.heap_index);
  map_erase(bk.time.count_ns());
  bk.head = free_bucket_;
  free_bucket_ = bucket;
}

void EventQueue::map_erase(Time::rep time) {
  const std::size_t mask = map_.size() - 1;
  std::size_t hole = home(time);
  while (map_[hole].time != time || map_[hole].bucket == kNone) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move them before their home slot.
  for (std::size_t j = (hole + 1) & mask; map_[j].bucket != kNone;
       j = (j + 1) & mask) {
    const std::size_t h = home(map_[j].time);
    const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    map_[hole] = map_[j];
    hole = j;
  }
  map_[hole].bucket = kNone;
}

void EventQueue::map_grow() {
  std::vector<MapEntry> old = std::move(map_);
  const std::size_t capacity = std::max<std::size_t>(16, 2 * old.size());
  map_.assign(capacity, MapEntry{});
  map_shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const MapEntry& e : old) {
    if (e.bucket == kNone) continue;
    std::size_t i = home(e.time);
    while (map_[i].bucket != kNone) i = (i + 1) & mask;
    map_[i] = e;
  }
}

// ---------------------------------------------------------------------------
// Indexed 4-ary min-heap over the distinct pending instants.

std::size_t EventQueue::sift_up(std::size_t index) {
  const HeapEntry entry = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 4;
    if (!(entry.time < heap_[parent].time)) break;
    heap_[index] = heap_[parent];
    buckets_[heap_[index].bucket].heap_index =
        static_cast<std::uint32_t>(index);
    index = parent;
  }
  heap_[index] = entry;
  buckets_[entry.bucket].heap_index = static_cast<std::uint32_t>(index);
  return index;
}

void EventQueue::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[index];
  for (;;) {
    const std::size_t first = 4 * index + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].time < heap_[best].time) best = c;
    }
    if (!(heap_[best].time < entry.time)) break;
    heap_[index] = heap_[best];
    buckets_[heap_[index].bucket].heap_index =
        static_cast<std::uint32_t>(index);
    index = best;
  }
  heap_[index] = entry;
  buckets_[entry.bucket].heap_index = static_cast<std::uint32_t>(index);
}

void EventQueue::heap_remove(std::size_t index) {
  const std::size_t last = heap_.size() - 1;
  if (index != last) {
    heap_[index] = heap_[last];
    heap_.pop_back();
    // The displaced entry may belong above or below its new position.
    if (sift_up(index) == index) sift_down(index);
  } else {
    heap_.pop_back();
  }
}

// ---------------------------------------------------------------------------

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.seq & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id.seq >> 32);
  if (slot >= slab_.size()) return false;
  const Slot& s = slab_[slot];
  if (s.bucket == kNone || s.generation != generation) return false;
  unlink(slot);
  release_slot(slot);
  return true;
}

void EventQueue::reserve(std::size_t n) {
  slab_.reserve(n);
  buckets_.reserve(n);
  heap_.reserve(n);
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty() && "pop() on empty queue");
  const HeapEntry top = heap_.front();
  const std::uint32_t slot = buckets_[top.bucket].head;
  Slot& s = slab_[slot];
  Fired fired{top.time, s.hi, s.lo, std::move(s.cb)};
  unlink(slot);
  release_slot(slot);
  return fired;
}

}  // namespace nimcast::sim
