// Deterministic discrete-event scheduler.
//
// Events live in a calendar queue: a ring of fixed-width time buckets (the
// wheel) for the near future plus a min-heap for events beyond the wheel
// horizon. Scheduling appends a 24-byte POD record to its bucket in O(1);
// draining sorts each bucket once, earliest first, when the cursor reaches
// it, and a record scheduled into that active bucket afterwards is placed
// by binary search (usually an append: it is the latest record so far), so
// the bucket being drained is always sorted. Events at the same instant run
// in scheduling order (a global sequence number breaks ties), which makes
// every run of a given seed bit-for-bit reproducible.
//
// Callbacks are kept in a slab of reusable slots, recycled through a free
// list, so steady-state scheduling performs no allocations (callbacks that
// fit std::function's small-buffer optimisation never touch the heap).
// Cancellation through the returned handle is amortized O(1): the slot's
// generation counter is bumped and the stale queue record is skipped when
// it surfaces.
//
// Drain channels are the datapath's fast lane: a component registers
// a raw function pointer once and then schedules 32-bit payloads (packet
// slab refs, see net/packet_slab.hpp) instead of closures. A drain record
// costs no std::function construction when scheduled and no indirect
// closure teardown when it runs, and run()/run_until() execute consecutive
// drain records off the sorted active bucket in a tight train loop without
// re-entering the cursor search. Drain records share the global sequence
// counter with closure events, so a datapath that switches a schedule site
// from closures to drains preserves execution order bit-for-bit.
//
// Delay lines are the fast lane for FIFO hops (a constant-delay netem):
// post_line_at appends a slotless drain record to its channel's ring, and
// only the line's front record sits in the wheel or the overflow heap.
// When the front runs, the next entry is queued with the (time, sequence)
// it was posted with, so execution order is exactly that of
// post_drain_at — but a 20 ms propagation delay no longer puts one record
// per in-flight packet into the O(log n) overflow heap.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace quicsteps::sim {

class EventLoop;

/// Coarse classification of scheduled callbacks, for the loop profile the
/// observability layer reports (executed-event counts per class). The tag
/// rides in the queue record's padding bytes, so carrying it is free; the
/// per-class counters themselves are only maintained when the build defines
/// QUICSTEPS_TRACE_ENABLED (CMake option QUICSTEPS_TRACE, default ON).
enum class EventClass : std::uint8_t {
  kGeneral = 0,  // untagged schedule calls
  kTimer,        // timer-service / loss-timer wakeups
  kTransmit,     // NIC serialization completions
  kQueue,        // qdisc watchdogs and timed releases
  kDelay,        // netem propagation-delay deliveries
  kWakeup,       // receive-side epoll/GRO wakeups
  kTransport,    // stack event-loop iterations (yield, ACK batches)
  kApp,          // application source arrivals
};

inline constexpr std::size_t kEventClassCount = 8;

/// Stable lower-case name for reports ("general", "timer", ...).
const char* to_string(EventClass cls);

#ifdef QUICSTEPS_TRACE_ENABLED
inline constexpr bool kLoopProfilingEnabled = true;
#else
inline constexpr bool kLoopProfilingEnabled = false;
#endif

/// Deterministic loop profile: pure functions of the executed event
/// sequence (no wall clocks), so serial and parallel runs of one seed
/// produce identical profiles. All zeros when profiling is compiled out.
struct LoopStats {
  std::array<std::uint64_t, kEventClassCount> scheduled{};
  std::array<std::uint64_t, kEventClassCount> executed{};
  std::uint64_t cancelled = 0;
  /// Records that missed the wheel horizon and took the overflow heap.
  std::uint64_t overflow_scheduled = 0;
  /// High-water mark of live pending events.
  std::uint64_t max_pending = 0;
  /// Drain-channel records executed (subset of `executed`), and how many
  /// of those rode the run() train loop instead of a full cursor search.
  std::uint64_t drain_executed = 0;
  std::uint64_t drain_batched = 0;
};

/// Handle to a scheduled event. Default-constructed handles are inert.
/// A handle is a (slot, generation) ticket into the owning loop's slab:
/// once the event runs or is cancelled, the slot's generation moves on and
/// every outstanding handle to it becomes inert — including handles to
/// slots that have since been recycled for newer events.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the callback from running. Safe to call repeatedly, on expired
  /// events, and on default-constructed handles.
  void cancel();

  /// True while the event is still pending (scheduled and not cancelled).
  bool pending() const;

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, std::uint32_t slot, std::uint32_t gen)
      : loop_(loop), slot_(slot), gen_(gen) {}
  EventLoop* loop_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A drain callback: `payload` is whatever 32-bit value the scheduling
/// site passed (by convention a net::PacketSlab ref). Plain function
/// pointer + context, so dispatch is one indirect call with no closure
/// storage behind it.
using DrainFn = void (*)(void* ctx, std::uint32_t payload);

/// Identifier handed out by EventLoop::register_drain.
using DrainId = std::uint16_t;

class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at`. Times in the past are
  /// clamped to `now()` (the event still runs, immediately-next).
  EventHandle schedule_at(Time at, std::function<void()> fn) {
    return schedule_at(at, EventClass::kGeneral, std::move(fn));
  }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to now.
  EventHandle schedule_after(Duration delay, std::function<void()> fn) {
    return schedule_after(delay, EventClass::kGeneral, std::move(fn));
  }

  /// Tagged variants: identical semantics, plus the event-class label the
  /// loop profile aggregates by.
  EventHandle schedule_at(Time at, EventClass cls, std::function<void()> fn);
  EventHandle schedule_after(Duration delay, EventClass cls,
                             std::function<void()> fn);

  /// Registers a drain channel. Called once per component during wiring;
  /// `cls` is the event class its records are profiled under. The channel
  /// lives as long as the loop. Ids are 14 bits wide (the queue record's
  /// class field carries two flag bits beside them): registering more than
  /// kMaxDrainChannels channels throws std::length_error, in every build.
  DrainId register_drain(EventClass cls, DrainFn fn, void* ctx);
  static constexpr std::size_t kMaxDrainChannels = 0x4000;

  /// Schedules `payload` to be handed to channel `ch` at absolute time
  /// `at` (clamped to now() like schedule_at). Fully interleaves with
  /// closure events: both draw from one sequence counter, so relative
  /// execution order matches an equivalent schedule_at call exactly.
  EventHandle schedule_drain_at(Time at, DrainId ch, std::uint32_t payload);

  /// Fire-and-forget variant of schedule_drain_at: the payload rides in
  /// the queue record itself, so no slab slot is touched on schedule or
  /// execute — but there is no handle and the record cannot be cancelled.
  /// This is the cheapest way through the loop; use it for records that
  /// are never cancelled (NIC completions, propagation-delay deliveries,
  /// receive wakeups). Ordering is identical to the other schedule calls
  /// (same sequence counter).
  void post_drain_at(Time at, DrainId ch, std::uint32_t payload);

  /// post_drain_at for a FIFO hop: the record joins channel `ch`'s delay
  /// line and is queued only once every earlier entry of the line has run.
  /// `at` (after clamping to now()) must never decrease along a line
  /// (audited). Execution order, pending_count() and the loop profile are
  /// exactly those of the equivalent post_drain_at calls; the two may be
  /// mixed on one channel.
  void post_line_at(Time at, DrainId ch, std::uint32_t payload);

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= deadline; afterwards now() == deadline (or
  /// later if the last event was exactly at the deadline).
  std::size_t run_until(Time deadline);

  /// Executes at most one pending event. Returns false if queue is empty.
  bool run_one();

  /// Number of live (non-cancelled) pending events.
  std::size_t pending_count() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Time of the earliest pending event, or Time::infinite() when empty.
  Time next_event_time() const;

  /// Deterministic loop profile (all zeros when QUICSTEPS_TRACE is off).
  const LoopStats& stats() const { return stats_; }

 private:
  friend class EventHandle;

  static constexpr int kWidthBits = 13;   // 8.192 us per bucket
  static constexpr int kBucketBits = 11;  // 2048 buckets -> ~16.8 ms horizon
  static constexpr std::uint64_t kBuckets = std::uint64_t{1} << kBucketBits;
  static constexpr std::uint64_t kMask = kBuckets - 1;
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  /// Callback storage, recycled through a free list. `gen` advances every
  /// time the slot's event runs or is cancelled, invalidating old handles.
  /// Drain records use a slot too (for the shared liveness/cancellation
  /// machinery) but leave `fn` null and carry their payload here instead —
  /// scheduling one never constructs a std::function. The free list is
  /// intrusive: a released slot's `payload` field (dead while free) links
  /// to the next free slot, so recycling needs no side vector at all.
  struct Slot {
    std::function<void()> fn;
    std::uint32_t payload = 0;
    std::uint32_t gen = 0;
    bool live = false;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// 24-byte POD queue record. A record whose slot is no longer live is a
  /// tombstone and is dropped when it surfaces. The event-class tag lives
  /// in bytes that were padding before, so profiling does not grow it.
  /// Records with kTrainClsBit set are drain records: the low cls bits are
  /// the DrainId and the slot's payload goes to the channel's function.
  /// Records that also carry kPostClsBit are slotless (post_drain_at,
  /// post_line_at): the `slot` field IS the payload, the record is always
  /// live, and no slab slot is consulted on any path. A line record is
  /// recognised through its channel (the line's front has its `seq`), so
  /// it needs no flag bit of its own.
  struct Rec {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint16_t cls;
  };
  static_assert(sizeof(Rec) == 24, "Rec must stay a 24-byte POD");

  static constexpr std::uint16_t kTrainClsBit = 0x8000;
  static constexpr std::uint16_t kPostClsBit = 0x4000;
  static constexpr std::uint16_t kTrainChannelMask = 0x3fff;
  static_assert(kMaxDrainChannels == kTrainChannelMask + 1u,
                "channel ids must fit below the record's flag bits");
  static constexpr std::uint32_t kNoLine = 0xffffffffu;

  struct DrainChannel {
    DrainFn fn = nullptr;
    void* ctx = nullptr;
    EventClass cls = EventClass::kGeneral;
    std::uint32_t line = kNoLine;  // index into lines_, once posted to
  };

  /// One channel's FIFO of posted records, a ring whose capacity is a
  /// power of two. front() is the record armed in the wheel or heap; the
  /// rest wait here, in post order, which is also (time, seq) order.
  struct DelayLine {
    std::vector<Rec> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    const Rec& front() const { return ring[head]; }
    const Rec& back() const {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
    void push(const Rec& rec);
    void pop() {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
  };

  static bool rec_before(const Rec& a, const Rec& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    return a.seq < b.seq;
  }
  /// Comparator for the overflow min-heap (std::push_heap wants max-first).
  static bool rec_after(const Rec& a, const Rec& b) {
    return rec_before(b, a);
  }
  static std::uint64_t bucket_index(std::int64_t at_ns) {
    return static_cast<std::uint64_t>(at_ns) >> kWidthBits;
  }

  bool slot_live(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].gen == gen;
  }
  /// Liveness of a queue record: slotless drain records are always live
  /// (nothing can cancel them); everything else defers to its slot. A dead
  /// record is therefore always slotted, so pruning may release its slot
  /// unconditionally.
  bool rec_live(const Rec& rec) const {
    return (rec.cls & kPostClsBit) != 0 || slots_[rec.slot].live;
  }
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);
  /// Marks a slot's event as done (executed or cancelled): handles go inert.
  void deactivate_slot(std::uint32_t slot);
  /// Returns a slot whose queue record is gone to the free list.
  void release_slot(std::uint32_t slot) {
    slots_[slot].payload = free_head_;
    free_head_ = slot;
  }
  /// Pops a free slot, growing storage only past the high-water mark.
  std::uint32_t acquire_slot();

  void set_bit(std::uint64_t idx) {
    occupied_[(idx & kMask) >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  void clear_bit(std::uint64_t idx) {
    occupied_[(idx & kMask) >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }
  /// First occupied bucket with absolute index in [from, base_idx_ +
  /// kBuckets), or kNoBucket. (Tombstone-only buckets count as occupied.)
  std::uint64_t next_occupied(std::uint64_t from) const;

  /// Counts a newly scheduled record (profile, liveness, high-water mark).
  void note_scheduled(EventClass cls);
  /// Queues a record: into its wheel bucket, or the overflow heap when it
  /// lies beyond the horizon.
  void enqueue(const Rec& rec);
  void wheel_insert(const Rec& rec);
  /// Sorts bucket `idx` for draining (tombstones pruned, earliest first)
  /// and makes it the active bucket.
  void activate(std::uint64_t idx);
  /// Drops the active bucket's consumed prefix and forgets the cursor; the
  /// bucket's remaining records stay as an ordinary (sorted) bucket.
  void deactivate();
  /// Empties the fully consumed active bucket and forgets the cursor.
  void retire_active();
  /// Pops the active bucket's head record; retires the bucket when that
  /// was its last record.
  Rec pop_active();
  /// Advances past dead records at the active bucket's head; returns false
  /// (and retires the bucket) when none is left.
  bool prune_active_head();
  /// Drops dead records off the overflow heap top so the top, if any, is
  /// live (keeps next_event_time() exact without mutation).
  void clean_overflow_top();
  /// Moves now() (and the wheel base) forward, pulling overflow records
  /// that entered the horizon into their buckets.
  void advance_now(Time to);
  /// Positions the cursor on the earliest live record, pruning tombstones
  /// on the way. Returns false when no live events remain; otherwise the
  /// record is wheel_[active_idx_ & kMask][active_head_] (when
  /// *from_overflow is false) or overflow_.front().
  bool locate_next(bool* from_overflow);

  /// Runs one surfaced drain record: payload out, slot recycled, the next
  /// entry of its delay line queued, channel function called (the
  /// drain-path analogue of run_one's tail).
  void execute_train(const Rec& rec);
  /// Train loop: executes consecutive drain records (time <= deadline)
  /// off the head of the sorted active bucket without re-entering
  /// locate_next, stopping at a closure or cancelled record, at the
  /// deadline, or when the next record is in the overflow heap. Returns
  /// the number executed.
  std::size_t drain_trains(Time deadline);

  std::vector<Slot> slots_;
  std::vector<DrainChannel> drains_;
  std::vector<DelayLine> lines_;
  std::uint32_t free_head_ = kNoSlot;  // intrusive free list through payload
  std::vector<std::vector<Rec>> wheel_;
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  std::vector<Rec> overflow_;  // min-heap on rec_after
  std::uint64_t base_idx_ = 0;        // bucket holding now()
  std::uint64_t hint_idx_ = 0;        // scans start here (<= first occupied)
  std::uint64_t active_idx_ = kNoBucket;  // bucket sorted for draining
  std::size_t active_head_ = 0;  // next record of the active bucket
  std::size_t wheel_count_ = 0;  // records in the wheel, incl. tombstones
  std::size_t live_count_ = 0;
  Time now_;
  std::uint64_t next_seq_ = 0;
  LoopStats stats_;
};

}  // namespace quicsteps::sim
