#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace nimcast::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(Time::us(3.0), [&] { fired.push_back(3); });
  q.schedule(Time::us(1.0), [&] { fired.push_back(1); });
  q.schedule(Time::us(2.0), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::us(5.0), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(Time::us(7.0), [] {});
  q.schedule(Time::us(4.0), [] {});
  EXPECT_EQ(q.next_time(), Time::us(4.0));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(Time::us(1.0), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(Time::us(1.0), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelledEventSkippedByNextTime) {
  EventQueue q;
  const EventId early = q.schedule(Time::us(1.0), [] {});
  q.schedule(Time::us(2.0), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), Time::us(2.0));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopReturnsTimeAndCallback) {
  EventQueue q;
  int hits = 0;
  q.schedule(Time::us(9.0), [&] { ++hits; });
  auto fired = q.pop();
  EXPECT_EQ(fired.time, Time::us(9.0));
  fired.cb();
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, ManyInterleavedScheduleCancel) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(
        q.schedule(Time::us(static_cast<double>(i)), [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 50);
}

TEST(EventQueue, CancelFreesSlotImmediately) {
  // Regression: the seed implementation kept cancelled heap entries
  // queued until popped, so schedule/cancel churn (retry timers in
  // reliable_ni) grew the queue unboundedly within a run. The slab must
  // recycle the slot at cancel time.
  EventQueue q;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = q.schedule(Time::us(1e6), [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // One live event at a time -> one slot, ever.
  EXPECT_EQ(q.slot_capacity(), 1u);
}

TEST(EventQueue, ChurnWithPendingFloorKeepsSlabBounded) {
  EventQueue q;
  std::vector<EventId> pending;
  for (int i = 0; i < 64; ++i) {
    pending.push_back(q.schedule(Time::us(static_cast<double>(i)), [] {}));
  }
  for (int round = 0; round < 10'000; ++round) {
    const EventId id =
        q.schedule(Time::us(1000.0 + static_cast<double>(round)), [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_EQ(q.size(), 64u);
  EXPECT_LE(q.slot_capacity(), 65u);
  for (const EventId id : pending) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdFromRecycledSlotIsRejected) {
  EventQueue q;
  const EventId first = q.schedule(Time::us(1.0), [] {});
  ASSERT_TRUE(q.cancel(first));
  // The slot is recycled for the next event; the old id must stay dead.
  const EventId second = q.schedule(Time::us(2.0), [] {});
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, LargeCallbackRoundTrips) {
  // Callables beyond the inline small-buffer go to the queue's pool;
  // behaviour must be identical.
  EventQueue q;
  std::array<std::uint64_t, 32> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i + 1;
  static_assert(sizeof(payload) > EventCallback::kInlineCapacity);
  std::uint64_t got = 0;
  q.schedule(Time::us(1.0), [payload, &got] {
    for (const std::uint64_t v : payload) got += v;
  });
  q.pop().cb();
  EXPECT_EQ(got, 32u * 33u / 2u);

  // Cancelled oversize callbacks release their pool chunk cleanly.
  const EventId id = q.schedule(Time::us(1.0), [payload, &got] {
    got += payload[0];
  });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReserveDoesNotDisturbPending) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.schedule(Time::us(static_cast<double>(8 - i)), [&fired, i] {
      fired.push_back(i);
    });
  }
  q.reserve(1024);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(EventQueue, FuzzAgainstMultimapModel) {
  // Random schedule/cancel/pop interleavings checked against a
  // std::multimap reference ordered by (time, insertion order) — the
  // documented FIFO tie-break for same-time events.
  using Key = std::pair<Time::rep, std::uint64_t>;
  Rng rng{20260806};
  EventQueue q;
  std::multimap<Key, int> model;
  struct Live {
    EventId id;
    Key key;
  };
  std::vector<Live> live;
  int next_tag = 0;
  std::vector<int> fired;
  std::uint64_t order = 0;

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 5 || live.empty()) {
      // Schedule. A small time range forces frequent same-time ties.
      const auto t = static_cast<Time::rep>(rng.next_below(64));
      const int tag = next_tag++;
      const Key key{t, order++};
      const EventId id =
          q.schedule(Time::ns(t), [tag, &fired] { fired.push_back(tag); });
      model.emplace(key, tag);
      live.push_back(Live{id, key});
    } else if (op < 7) {
      // Cancel a random live event.
      const std::size_t pick = rng.next_below(live.size());
      ASSERT_TRUE(q.cancel(live[pick].id));
      ASSERT_FALSE(q.cancel(live[pick].id)) << "double cancel succeeded";
      auto [lo, hi] = model.equal_range(live[pick].key);
      ASSERT_TRUE(lo != hi);
      model.erase(lo);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Pop the earliest; must match the model's front exactly.
      ASSERT_EQ(q.size(), model.size());
      auto front = model.begin();
      auto fired_event = q.pop();
      ASSERT_EQ(fired_event.time, Time::ns(front->first.first));
      const std::size_t before = fired.size();
      fired_event.cb();
      ASSERT_EQ(fired.size(), before + 1);
      ASSERT_EQ(fired.back(), front->second);
      const Key popped_key = front->first;
      model.erase(front);
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].key == popped_key) {
          // Popped ids must be dead for cancellation.
          EXPECT_FALSE(q.cancel(live[i].id));
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }

  // Drain what's left; order must match the model exactly.
  while (!model.empty()) {
    ASSERT_EQ(q.size(), model.size());
    auto front = model.begin();
    auto fired_event = q.pop();
    ASSERT_EQ(fired_event.time, Time::ns(front->first.first));
    fired_event.cb();
    ASSERT_EQ(fired.back(), front->second);
    model.erase(front);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, KeyedEventsSortWithinTheirInstant) {
  // A reserved order key replayed later, and explicit keys arriving out of
  // order, fire in ascending (hi, lo) within one instant — not in the order
  // they were scheduled.
  EventQueue q;
  std::vector<int> fired;
  const std::uint64_t early = q.reserve_order();
  q.schedule(Time::us(1.0), [&fired] { fired.push_back(1); });
  q.schedule(Time::us(1.0), [&fired] { fired.push_back(2); });
  q.schedule_keyed(Time::us(1.0), 0, early, [&fired] { fired.push_back(0); });
  q.schedule_keyed(Time::us(2.0), 5, 9, [&fired] { fired.push_back(13); });
  q.schedule_keyed(Time::us(2.0), 5, 3, [&fired] { fired.push_back(11); });
  q.schedule_keyed(Time::us(2.0), 5, 7, [&fired] { fired.push_back(12); });
  q.schedule_keyed(Time::us(2.0), 4, 99, [&fired] { fired.push_back(10); });
  q.schedule_keyed(Time::us(2.0), 5, 7, [&fired] { fired.push_back(14); });
  while (!q.empty()) q.pop().cb();
  // Equal keys (the two (5, 7) events) keep their schedule order.
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 10, 11, 12, 14, 13}));
}

TEST(EventQueue, FuzzKeyedAgainstMultimapModel) {
  // Random interleavings of plain and keyed schedules (out-of-order (hi, lo)
  // at one instant), reserve_order replay chains, rekey_lo, targeted
  // cancellation of the head, middle, tail or sole event of an instant, and
  // pops — checked against a std::multimap keyed by (time, hi, lo), whose
  // equal keys keep insertion order like the queue's.
  using Key = std::tuple<Time::rep, std::uint64_t, std::uint64_t>;
  Rng rng{20261019};
  EventQueue q;
  std::multimap<Key, int> model;
  struct Live {
    EventId id;
    Key key;
  };
  std::map<int, Live> live;
  int next_tag = 0;
  std::vector<int> fired;
  std::uint64_t order = 1;  // mirrors the queue's insertion counter

  const auto add = [&](Time::rep t, std::uint64_t hi, std::uint64_t lo,
                       bool plain) {
    const int tag = next_tag++;
    const auto cb = [tag, &fired] { fired.push_back(tag); };
    const EventId id =
        plain ? q.schedule(Time::ns(t), cb)
              : q.schedule_keyed(Time::ns(t), hi, lo, cb);
    const Key key{t, hi, lo};
    model.emplace(key, tag);
    live.emplace(tag, Live{id, key});
  };
  const auto remove = [&](std::multimap<Key, int>::iterator it) {
    const int tag = it->second;
    ASSERT_TRUE(q.cancel(live.at(tag).id));
    ASSERT_FALSE(q.cancel(live.at(tag).id)) << "double cancel succeeded";
    live.erase(tag);
    model.erase(it);
  };
  const auto pop_and_check = [&] {
    ASSERT_EQ(q.size(), model.size());
    const auto front = model.begin();
    ASSERT_EQ(q.next_time(), Time::ns(std::get<0>(front->first)));
    auto ev = q.pop();
    ASSERT_EQ(ev.time, Time::ns(std::get<0>(front->first)));
    ASSERT_EQ(ev.hi, std::get<1>(front->first));
    ASSERT_EQ(ev.lo, std::get<2>(front->first));
    ev.cb();
    ASSERT_EQ(fired.back(), front->second);
    const EventId id = live.at(front->second).id;
    EXPECT_FALSE(q.cancel(id)) << "popped id still cancellable";
    live.erase(front->second);
    model.erase(front);
  };

  for (int step = 0; step < 30'000; ++step) {
    const std::uint64_t op = rng.next_below(20);
    // A small time range forces many events per instant; the occasional
    // wide one keeps hundreds of sparse instants in the instant -> bucket
    // map, so its collision and deletion paths get exercised too.
    const auto t = static_cast<Time::rep>(
        rng.next_below(4) == 0 ? rng.next_below(1024) : rng.next_below(24));
    if (op < 4 || model.empty()) {
      const std::uint64_t lo = order++;
      add(t, 0, lo, true);
    } else if (op < 8) {
      add(t, rng.next_below(3), rng.next_below(40), false);
    } else if (op < 9) {
      // A replay chain: one reserved key at several distinct instants.
      const std::uint64_t key = q.reserve_order();
      ++order;
      for (Time::rep k = 0; k < 3; ++k) add(t + 7 * k, 0, key, false);
    } else if (op < 12) {
      // Cancel the head, middle, tail or sole event of one instant.
      const Time::rep at = std::get<0>(
          std::next(model.begin(),
                    static_cast<std::ptrdiff_t>(rng.next_below(model.size())))
              ->first);
      const auto first = model.lower_bound(Key{at, 0, 0});
      const auto end = model.lower_bound(Key{at + 1, 0, 0});
      const auto n = std::distance(first, end);
      const std::uint64_t where = rng.next_below(3);
      auto it = first;
      if (where == 1) std::advance(it, n / 2);
      if (where == 2) std::advance(it, n - 1);
      remove(it);
    } else if (op < 13) {
      // Cancel a random live event.
      remove(std::next(model.begin(), static_cast<std::ptrdiff_t>(
                                          rng.next_below(model.size()))));
    } else if (op < 14) {
      // Rekey the events of a few instants with an order-scrambling map;
      // the model re-sorts, keeping the old relative order of equal keys.
      const std::uint64_t pick = rng.next_below(8);
      const std::uint64_t mask = rng.next_below(64);
      const auto pred = [pick](Time::rep at, std::uint64_t hi) {
        return static_cast<std::uint64_t>(at) % 8 == pick && hi != 1;
      };
      q.rekey_lo([&](Time at, std::uint64_t hi, std::uint64_t lo) {
        return pred(at.count_ns(), hi) ? lo ^ mask : lo;
      });
      std::multimap<Key, int> rekeyed;
      for (const auto& [key, tag] : model) {
        auto [at, hi, lo] = key;
        if (pred(at, hi)) lo ^= mask;
        rekeyed.emplace(Key{at, hi, lo}, tag);
        live.at(tag).key = Key{at, hi, lo};
      }
      model = std::move(rekeyed);
    } else {
      pop_and_check();
    }
    if (HasFatalFailure()) return;
  }
  while (!model.empty()) {
    pop_and_check();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ChurnOverManyInstantsKeepsSlotsAndBucketsBounded) {
  // Schedule/cancel/pop churn where nearly every event lands on an instant
  // of its own: the slab and the bucket store must recycle, never growing
  // past the peak number of concurrently pending events.
  Rng rng{7};
  EventQueue q;
  std::map<int, EventId> pending;  // tag -> id
  int next_tag = 0;
  int popped = -1;
  std::size_t peak = 0;
  Time::rep t = 0;
  for (int round = 0; round < 100'000; ++round) {
    const std::uint64_t op = rng.next_below(4);
    if (op < 2 || pending.size() < 8) {
      // Instants drift forward, so pops never see an earlier time.
      t += 1 + static_cast<Time::rep>(rng.next_below(5));
      const int tag = next_tag++;
      pending.emplace(
          tag, q.schedule(Time::ns(t + static_cast<Time::rep>(
                                           rng.next_below(1000))),
                          [tag, &popped] { popped = tag; }));
    } else if (op == 2) {
      const auto it = std::next(
          pending.begin(),
          static_cast<std::ptrdiff_t>(rng.next_below(pending.size())));
      ASSERT_TRUE(q.cancel(it->second));
      pending.erase(it);
    } else {
      q.pop().cb();
      ASSERT_EQ(pending.erase(popped), 1u);
    }
    peak = std::max(peak, q.size());
    ASSERT_EQ(q.size(), pending.size());
  }
  EXPECT_GT(peak, 8u);
  EXPECT_LE(q.slot_capacity(), peak);
  EXPECT_LE(q.bucket_capacity(), peak);
}

}  // namespace
}  // namespace nimcast::sim
