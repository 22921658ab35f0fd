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
// Every event is one kind of callback: a C function pointer, a context
// pointer and a 32-bit payload (by convention a net::PacketSlab ref), so
// dispatch is one indirect call with no closure storage behind it. A
// cancellable event keeps the three in a slab of reusable slots, recycled
// through a free list, so steady-state scheduling performs no allocations.
// Cancellation through the returned handle is amortized O(1): the slot's
// generation counter is bumped and the stale queue record is skipped when
// it surfaces.
//
// Drain channels are the datapath's fast lane for events that are never
// cancelled: a component registers its function and context once and then
// posts 32-bit payloads that ride in the queue record itself, with no slot
// touched on any path. Posted and slotted records share the global
// sequence counter, and run()/run_until() execute consecutive records of
// either kind off the sorted active bucket in a tight train loop without
// re-entering the cursor search.
//
// Delay lines are the fast lane for FIFO hops (a constant-delay netem):
// post_line_at appends a posted record to its channel's ring, and only the
// line's front record sits in the wheel or the overflow heap. When the
// front runs, the next entry is queued with the (time, sequence) it was
// posted with, so execution order is exactly that of post_drain_at — but a
// 20 ms propagation delay no longer puts one record per in-flight packet
// into the O(log n) overflow heap.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/fifo_ring.hpp"
#include "sim/time.hpp"

namespace quicsteps::sim {

class EventLoop;

/// Coarse classification of scheduled callbacks, for the loop profile the
/// observability layer reports (executed-event counts per class). The tag
/// rides in the queue record's padding bytes, so carrying it is free.
enum class EventClass : std::uint8_t {
  kGeneral = 0,  // work no other class describes
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

/// Not a setting: the loop profile is always kept. The constant exists
/// only because perfbench/src/traced_run.cpp still reads it.
inline constexpr bool kLoopProfilingEnabled = true;

/// Deterministic loop profile: pure functions of the executed event
/// sequence (no wall clocks), so serial and parallel runs of one seed
/// produce identical profiles.
struct LoopStats {
  std::array<std::uint64_t, kEventClassCount> scheduled{};
  std::array<std::uint64_t, kEventClassCount> executed{};
  std::uint64_t cancelled = 0;
  /// Records that missed the wheel horizon and took the overflow heap.
  std::uint64_t overflow_scheduled = 0;
  /// High-water mark of live pending events.
  std::uint64_t max_pending = 0;
  /// Records executed. Every record is a DrainFn callback, so this equals
  /// the sum of `executed`; it stays because reports read it by name.
  std::uint64_t drain_executed = 0;
  /// Records the run() train loop executed without a full cursor search.
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

/// The one callback type: `payload` is whatever 32-bit value the
/// scheduling site passed (by convention a net::PacketSlab ref).
using DrainFn = void (*)(void* ctx, std::uint32_t payload);

namespace detail {
template <class Method>
struct MethodTraits;
template <class C>
struct MethodTraits<void (C::*)()> {
  using Class = C;
  static constexpr bool kTakesPayload = false;
};
template <class C>
struct MethodTraits<void (C::*)(std::uint32_t)> {
  using Class = C;
  static constexpr bool kTakesPayload = true;
};
}  // namespace detail

/// The class that declares member function `Method`, which must be a
/// `void()` or a `void(std::uint32_t payload)`.
template <auto Method>
using MethodClass = typename detail::MethodTraits<decltype(Method)>::Class;

/// Identifier handed out by EventLoop::register_drain.
using DrainId = std::uint16_t;

class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn(ctx, payload)` to run at absolute time `at`, profiled
  /// under `cls`. Times in the past are clamped to `now()` (the event
  /// still runs, immediately-next).
  EventHandle schedule_at(Time at, EventClass cls, DrainFn fn, void* ctx,
                          std::uint32_t payload = 0);

  /// Schedules `fn(ctx, payload)` to run `delay` from now. Negative delays
  /// clamp to now.
  EventHandle schedule_after(Duration delay, EventClass cls, DrainFn fn,
                             void* ctx, std::uint32_t payload = 0) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return schedule_at(now_ + delay, cls, fn, ctx, payload);
  }

  /// Binds member function `Method` to `obj`:
  /// `loop.schedule_at<&FqQdisc::on_watchdog>(t, EventClass::kQueue, this)`.
  /// `obj` converts to the method's own class before it is erased to
  /// void*, so a pointer to a derived class binds correctly.
  template <auto Method>
  EventHandle schedule_at(Time at, EventClass cls, MethodClass<Method>* obj,
                          std::uint32_t payload = 0) {
    return schedule_at(at, cls, &call_method<Method>, obj, payload);
  }

  /// Registers a drain channel. Called once per component during wiring;
  /// `cls` is the event class its records are profiled under. The channel
  /// lives as long as the loop. Ids are 14 bits wide (the queue record's
  /// class field carries the posted-record flag above them): registering
  /// more than kMaxDrainChannels channels throws std::length_error, in
  /// every build.
  DrainId register_drain(EventClass cls, DrainFn fn, void* ctx);
  static constexpr std::size_t kMaxDrainChannels = 0x4000;
  /// Capacity hint: room for `more` channels beyond those registered.
  void reserve_drains(std::size_t more) {
    drains_.reserve(drains_.size() + more);
  }

  /// Schedules channel `ch`'s function with `payload` at `at`, fire and
  /// forget: the payload rides in the queue record itself, so no slab slot
  /// is touched on schedule or execute — but there is no handle and the
  /// record cannot be cancelled (a cancellable event is a schedule_at).
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

  /// Deterministic loop profile.
  const LoopStats& stats() const { return stats_; }

 private:
  friend class EventHandle;

  static constexpr int kWidthBits = 13;   // 8.192 us per bucket
  static constexpr int kBucketBits = 11;  // 2048 buckets -> ~16.8 ms horizon
  static constexpr std::uint64_t kBuckets = std::uint64_t{1} << kBucketBits;
  static constexpr std::uint64_t kMask = kBuckets - 1;
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  /// A cancellable event's callback, recycled through a free list. `gen`
  /// advances every time the slot's event runs or is cancelled,
  /// invalidating old handles. The free list is intrusive: a released
  /// slot's `payload` field (dead while free) links to the next free slot,
  /// so recycling needs no side vector at all.
  struct Slot {
    DrainFn fn = nullptr;
    void* ctx = nullptr;
    std::uint32_t payload = 0;
    std::uint32_t gen = 0;
    bool live = false;
  };
  static_assert(sizeof(Slot) == 32, "Slot must stay 32 bytes");
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// 24-byte POD queue record. A slotted record's `cls` is its EventClass
  /// and its `slot` indexes the slab; once the slot is no longer live the
  /// record is a tombstone and is dropped when it surfaces. A posted
  /// record (post_drain_at, post_line_at) carries kPostClsBit over its
  /// DrainId: the `slot` field IS the payload, the record is always live,
  /// and no slab slot is consulted on any path. A line record is
  /// recognised through its channel (the line's front has its `seq`), so
  /// it needs no flag bit of its own.
  struct Rec {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint16_t cls;
  };
  static_assert(sizeof(Rec) == 24, "Rec must stay a 24-byte POD");

  static constexpr std::uint16_t kPostClsBit = 0x4000;
  static constexpr std::uint16_t kChannelMask = 0x3fff;
  static_assert(kMaxDrainChannels == kChannelMask + 1u,
                "channel ids must fit below the record's flag bit");
  static constexpr std::uint32_t kNoLine = 0xffffffffu;

  struct DrainChannel {
    DrainFn fn = nullptr;
    void* ctx = nullptr;
    EventClass cls = EventClass::kGeneral;
    std::uint32_t line = kNoLine;  // index into lines_, once posted to
  };

  /// One channel's FIFO of posted records. front() is the record armed in
  /// the wheel or heap; the rest wait here, in post order, which is also
  /// (time, seq) order.
  using DelayLine = FifoRing<Rec>;

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
  /// Liveness of a queue record: posted records are always live (nothing
  /// can cancel them); slotted ones defer to their slot. A dead record is
  /// therefore always slotted, so pruning may release its slot
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

  /// Runs one surfaced record: callback out of its channel (posted) or
  /// slot (slotted, which is then recycled), the next entry of its delay
  /// line queued, callback called.
  void execute(const Rec& rec);
  /// Train loop: executes consecutive records (time <= deadline) off the
  /// head of the sorted active bucket without re-entering locate_next,
  /// stopping at a cancelled record, at the deadline, or when the next
  /// record is in the overflow heap. Returns the number executed.
  std::size_t drain_trains(Time deadline);

  template <auto Method>
  static void call_method(void* obj, [[maybe_unused]] std::uint32_t payload) {
    auto* self = static_cast<MethodClass<Method>*>(obj);
    if constexpr (detail::MethodTraits<decltype(Method)>::kTakesPayload) {
      (self->*Method)(payload);
    } else {
      (self->*Method)();
    }
  }

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
