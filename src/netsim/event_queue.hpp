// The slab scheduler's event queue.
//
// The scheduler stores callbacks in a slab; what gets ordered is a 24-byte
// EventKey {when, seq, slot} in strict (when, seq) order — seq is unique, so
// there are no ambiguous ties. Its tests replay every operation against a
// plain binary min-heap of keys, which yields the same total order.
//
// CalendarEventQueue is a bucketed timer ring for the dominant near-future
// events, O(1) amortized. The ring covers [base, base + buckets * width);
// events beyond the horizon wait in a far-future heap and migrate into the
// ring when it drains and rebases. Buckets are swept into a small "active"
// min-heap as the cursor reaches them; `swept_end` records the exclusive end
// time of the last swept bucket, and any in-window insert below that
// watermark joins the active heap directly — the cursor has already passed
// its bucket (e.g. a peek() swept a future bucket and the caller then
// scheduled into the gap), and parking it in the ring would delay it a full
// lap. Inserts before `base` (possible after run_until() parks the clock
// between a drained ring and a far-future rebase target) go to an underflow
// heap that is strictly earlier than everything else. Invariant:
// underflow < base <= active < swept_end <= ring, so draining underflow,
// then active, then sweeping buckets in cursor order yields the exact
// (when, seq) total order without ever rebasing backwards.
#pragma once

#include <cassert>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/time.hpp"

namespace swiftest::netsim {

struct EventKey {
  core::SimTime when = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;

  bool operator>(const EventKey& other) const noexcept {
    if (when != other.when) return when > other.when;
    return seq > other.seq;
  }
};

using EventKeyHeap =
    std::priority_queue<EventKey, std::vector<EventKey>, std::greater<>>;

/// O(1)-amortized calendar queue. Defaults: 1024 buckets of 2^18 ns
/// (~262 us) give a ~268 ms ring — wider than any simulated RTT or pacing
/// gap, so steady-state packet events never touch the far heap.
class CalendarEventQueue {
 public:
  explicit CalendarEventQueue(std::uint32_t width_shift = 18,
                              std::uint32_t bucket_count = 1024)
      : width_shift_(width_shift),
        bucket_mask_(bucket_count - 1),
        buckets_(bucket_count) {
    assert((bucket_count & (bucket_count - 1)) == 0 && "bucket count must be a power of 2");
    horizon_end_ = span();
  }

  /// Structural activity counters for resource self-telemetry: how often the
  /// ring swept buckets, rebased its window, or routed keys to the slow
  /// heaps. Deterministic for a deterministic event sequence.
  struct Stats {
    std::uint64_t sweeps = 0;           // buckets swept into the active heap
    std::uint64_t rebases = 0;          // window jumps to the far heap
    std::uint64_t far_pushes = 0;       // keys pushed beyond the horizon
    std::uint64_t underflow_pushes = 0; // keys pushed before base
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  void push(const EventKey& key) {
    ++size_;
    if (key.when >= horizon_end_) {
      ++stats_.far_pushes;
      far_.push(key);
    } else if (key.when < base_) {
      ++stats_.underflow_pushes;
      underflow_.push(key);
    } else if (key.when < swept_end_) {
      // The sweep cursor has already passed this key's bucket in the current
      // lap; the active heap restores (when, seq) order for late arrivals.
      active_.push(key);
    } else {
      buckets_[bucket_of(key.when)].push_back(key);
      ++ring_count_;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Lowest (when, seq) key without removing it. May migrate far-future
  /// events into the ring (order-preserving). False when empty.
  bool peek(EventKey& out) {
    EventKeyHeap* src = select_source();
    if (src == nullptr) return false;
    out = src->top();
    return true;
  }

  EventKey pop() {
    EventKeyHeap* src = select_source();
    assert(src != nullptr);
    EventKey key = src->top();
    src->pop();
    --size_;
    return key;
  }

 private:
  [[nodiscard]] core::SimTime span() const noexcept {
    return static_cast<core::SimTime>(bucket_mask_ + 1) << width_shift_;
  }
  [[nodiscard]] std::uint32_t bucket_of(core::SimTime when) const noexcept {
    return static_cast<std::uint32_t>(when >> width_shift_) & bucket_mask_;
  }
  /// Start time of ring bucket `b` within the current window. Well-defined
  /// because `base_` is bucket-aligned and the window spans exactly one lap.
  [[nodiscard]] core::SimTime bucket_start(std::uint32_t b) const noexcept {
    const std::uint32_t lap = (b - bucket_of(base_)) & bucket_mask_;
    return base_ + (static_cast<core::SimTime>(lap) << width_shift_);
  }

  /// Sweeps ring buckets into the active heap (advancing the watermark)
  /// until it is non-empty. False when both it and the ring are exhausted.
  bool ensure_active() {
    while (true) {
      if (!active_.empty()) return true;
      if (ring_count_ == 0) return false;
      while (buckets_[cursor_].empty()) cursor_ = (cursor_ + 1) & bucket_mask_;
      std::vector<EventKey>& bucket = buckets_[cursor_];
      for (const EventKey& key : bucket) active_.push(key);
      ring_count_ -= bucket.size();
      bucket.clear();
      ++stats_.sweeps;
      // Buckets skipped above were empty, so every ring key still ahead of
      // the cursor is >= swept_end_ — late pushes below it go to active_.
      swept_end_ = bucket_start(cursor_) + (core::SimTime{1} << width_shift_);
      cursor_ = (cursor_ + 1) & bucket_mask_;
    }
  }

  /// Ring drained and no underflow: jump the window to the earliest
  /// far-future event and pull everything inside the new horizon into the
  /// ring. Keys only ever move far -> ring, so `size_` is untouched.
  void rebase_from_far() {
    assert(!far_.empty());
    ++stats_.rebases;
    base_ = (far_.top().when >> width_shift_) << width_shift_;
    horizon_end_ = base_ + span();
    cursor_ = bucket_of(base_);
    swept_end_ = base_;  // nothing in the new window has been swept yet
    while (!far_.empty() && far_.top().when < horizon_end_) {
      buckets_[bucket_of(far_.top().when)].push_back(far_.top());
      ++ring_count_;
      far_.pop();
    }
  }

  EventKeyHeap* select_source() {
    if (size_ == 0) return nullptr;
    // Underflow keys are strictly earlier than base_, and every ring/active
    // key is >= base_, so the underflow heap always wins while non-empty.
    if (!underflow_.empty()) return &underflow_;
    if (!ensure_active()) {
      rebase_from_far();
      const bool loaded = ensure_active();
      assert(loaded);
      (void)loaded;
    }
    return &active_;
  }

  std::uint32_t width_shift_;
  std::uint32_t bucket_mask_;
  std::vector<std::vector<EventKey>> buckets_;
  std::size_t ring_count_ = 0;  // keys sitting in bucket vectors
  std::size_t size_ = 0;        // total keys across all structures
  core::SimTime base_ = 0;       // start of the ring window
  core::SimTime horizon_end_;    // base_ + span()
  core::SimTime swept_end_ = 0;  // exclusive end of the last swept bucket
  std::uint32_t cursor_ = 0;     // next bucket to sweep into the active heap
  EventKeyHeap active_;     // swept keys plus late arrivals below swept_end_
  EventKeyHeap underflow_;  // keys scheduled before base_ (post-rebase gap)
  EventKeyHeap far_;        // keys at or beyond the horizon
  Stats stats_;
};

}  // namespace swiftest::netsim
