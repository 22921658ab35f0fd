#include "sim/event_loop.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "check/audit.hpp"

namespace quicsteps::sim {

const char* to_string(EventClass cls) {
  switch (cls) {
    case EventClass::kGeneral:
      return "general";
    case EventClass::kTimer:
      return "timer";
    case EventClass::kTransmit:
      return "transmit";
    case EventClass::kQueue:
      return "queue";
    case EventClass::kDelay:
      return "delay";
    case EventClass::kWakeup:
      return "wakeup";
    case EventClass::kTransport:
      return "transport";
    case EventClass::kApp:
      return "app";
  }
  return "general";
}

void EventHandle::cancel() {
  if (loop_ != nullptr) loop_->cancel_slot(slot_, gen_);
}

bool EventHandle::pending() const {
  return loop_ != nullptr && loop_->slot_live(slot_, gen_);
}

EventLoop::EventLoop() : wheel_(kBuckets) {}

std::uint32_t EventLoop::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].payload;
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

void EventLoop::note_scheduled(EventClass cls) {
  ++live_count_;
  if constexpr (kLoopProfilingEnabled) {
    ++stats_.scheduled[static_cast<std::size_t>(cls)];
    if (live_count_ > stats_.max_pending) stats_.max_pending = live_count_;
  }
}

void EventLoop::enqueue(const Rec& rec) {
  if (bucket_index(rec.at_ns) < base_idx_ + kBuckets) {
    wheel_insert(rec);
  } else {
    if constexpr (kLoopProfilingEnabled) ++stats_.overflow_scheduled;
    overflow_.push_back(rec);
    std::push_heap(overflow_.begin(), overflow_.end(), rec_after);
  }
}

EventHandle EventLoop::schedule_at(Time at, EventClass cls, DrainFn fn,
                                   void* ctx, std::uint32_t payload) {
  if (at < now_) at = now_;

  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = fn;
  s.ctx = ctx;
  s.payload = payload;
  s.live = true;

  note_scheduled(cls);
  enqueue(Rec{at.ns(), next_seq_++, slot, static_cast<std::uint16_t>(cls)});
  return EventHandle(this, slot, s.gen);
}

DrainId EventLoop::register_drain(EventClass cls, DrainFn fn, void* ctx) {
  // One id more would alias the record's flag bit: channel 0x4000 reads as
  // a posted record on channel 0. That misroutes silently, so the limit is
  // checked in every build, not only under QUICSTEPS_AUDIT.
  if (drains_.size() >= kMaxDrainChannels) {
    throw std::length_error("EventLoop: more than " +
                            std::to_string(kMaxDrainChannels) +
                            " drain channels registered");
  }
  drains_.push_back(DrainChannel{fn, ctx, cls});
  return static_cast<DrainId>(drains_.size() - 1);
}

void EventLoop::post_drain_at(Time at, DrainId ch, std::uint32_t payload) {
  if (at < now_) at = now_;
  QUICSTEPS_AUDIT(ch < drains_.size(), "drain channel not registered");

  note_scheduled(drains_[ch].cls);
  enqueue(Rec{at.ns(), next_seq_++, payload,
              static_cast<std::uint16_t>(kPostClsBit | ch)});
}

void EventLoop::post_line_at(Time at, DrainId ch, std::uint32_t payload) {
  if (at < now_) at = now_;
  QUICSTEPS_AUDIT(ch < drains_.size(), "drain channel not registered");

  DrainChannel& channel = drains_[ch];
  if (channel.line == kNoLine) {
    channel.line = static_cast<std::uint32_t>(lines_.size());
    lines_.emplace_back();
  }
  DelayLine& line = lines_[channel.line];
  const Rec rec{at.ns(), next_seq_++, payload,
                static_cast<std::uint16_t>(kPostClsBit | ch)};
  QUICSTEPS_AUDIT(line.empty() || line.back().at_ns <= rec.at_ns,
                  "delay line posted out of time order");
  note_scheduled(channel.cls);
  line.push_back(rec);
  // An empty line arms its first entry; later entries wait for it to run.
  if (line.size() == 1) enqueue(rec);
}

void EventLoop::deactivate_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  QUICSTEPS_AUDIT(s.live, "slab slot deactivated twice");
  s.live = false;
  ++s.gen;  // outstanding handles go inert
  --live_count_;
}

void EventLoop::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_live(slot, gen)) return;
  deactivate_slot(slot);
  if constexpr (kLoopProfilingEnabled) ++stats_.cancelled;
  // The queue record became a tombstone; wheel tombstones are pruned when
  // the cursor reaches them, the overflow top is kept live eagerly.
  clean_overflow_top();
}

void EventLoop::wheel_insert(const Rec& rec) {
  const std::uint64_t idx = bucket_index(rec.at_ns);
  std::vector<Rec>& b = wheel_[idx & kMask];
  if (idx == active_idx_ && b.size() == b.capacity() &&
      2 * active_head_ >= b.size()) {
    // Reuse the room of records already run before growing, so a bucket's
    // capacity follows its pending records, not all it held while active.
    b.erase(b.begin(),
            b.begin() + static_cast<std::ptrdiff_t>(active_head_));
    active_head_ = 0;
  }
  if (idx == active_idx_ && rec_before(rec, b.back())) {
    // Keep the bucket being drained sorted. A new record is later than
    // every record already run (at >= now, larger seq), so it lands at or
    // after the head.
    b.insert(std::upper_bound(b.begin() + static_cast<std::ptrdiff_t>(
                                              active_head_),
                              b.end(), rec, rec_before),
             rec);
  } else {
    // Non-active buckets are sorted when they activate; into the active
    // one, the usual record is the latest so far and appends.
    b.push_back(rec);
  }
  set_bit(idx);
  ++wheel_count_;
  if (idx < hint_idx_) hint_idx_ = idx;
}

void EventLoop::activate(std::uint64_t idx) {
  if (active_idx_ != kNoBucket) deactivate();
  std::vector<Rec>& b = wheel_[idx & kMask];
  std::size_t kept = 0;
  for (const Rec& rec : b) {
    if (rec_live(rec)) {
      b[kept++] = rec;
    } else {
      release_slot(rec.slot);
    }
  }
  wheel_count_ -= b.size() - kept;
  b.resize(kept);
  std::sort(b.begin(), b.end(), rec_before);
  active_idx_ = idx;
  active_head_ = 0;
}

void EventLoop::deactivate() {
  std::vector<Rec>& b = wheel_[active_idx_ & kMask];
  b.erase(b.begin(),
          b.begin() + static_cast<std::ptrdiff_t>(active_head_));
  active_idx_ = kNoBucket;
  active_head_ = 0;
}

void EventLoop::retire_active() {
  wheel_[active_idx_ & kMask].clear();
  clear_bit(active_idx_);
  active_idx_ = kNoBucket;
  active_head_ = 0;
}

EventLoop::Rec EventLoop::pop_active() {
  std::vector<Rec>& b = wheel_[active_idx_ & kMask];
  const Rec rec = b[active_head_++];
  --wheel_count_;
  if (active_head_ == b.size()) retire_active();
  return rec;
}

bool EventLoop::prune_active_head() {
  std::vector<Rec>& b = wheel_[active_idx_ & kMask];
  // Records cancelled since the sort lie dead at arbitrary positions; only
  // the head needs to be live.
  while (active_head_ < b.size() && !rec_live(b[active_head_])) {
    release_slot(b[active_head_].slot);
    ++active_head_;
    --wheel_count_;
  }
  if (active_head_ < b.size()) return true;
  retire_active();
  return false;
}

void EventLoop::clean_overflow_top() {
  while (!overflow_.empty() && !rec_live(overflow_.front())) {
    release_slot(overflow_.front().slot);
    std::pop_heap(overflow_.begin(), overflow_.end(), rec_after);
    overflow_.pop_back();
  }
}

std::uint64_t EventLoop::next_occupied(std::uint64_t from) const {
  const std::uint64_t end = base_idx_ + kBuckets;
  std::uint64_t idx = std::max(from, base_idx_);
  while (idx < end) {
    std::uint64_t word = occupied_[(idx & kMask) >> 6];
    word &= ~std::uint64_t{0} << (idx & 63);
    // Do not run past the window end within this word.
    const std::uint64_t word_base = idx - (idx & 63);
    if (word != 0) {
      const std::uint64_t found =
          word_base + static_cast<std::uint64_t>(std::countr_zero(word));
      if (found >= end) return kNoBucket;
      return found;
    }
    idx = word_base + 64;
  }
  return kNoBucket;
}

void EventLoop::advance_now(Time to) {
  QUICSTEPS_AUDIT(to >= now_, "simulated clock moved backwards");
  now_ = to;
  const std::uint64_t nb = bucket_index(now_.ns());
  if (nb <= base_idx_) return;
  base_idx_ = nb;
  if (hint_idx_ < base_idx_) hint_idx_ = base_idx_;
  // A jump past the active bucket (run_until with only tombstones left in
  // it) strands it behind the window, where its ring slot aliases a bucket
  // inside; make it an ordinary tombstone bucket again.
  if (active_idx_ < base_idx_) deactivate();
  // Overflow records that entered the horizon move into the wheel. Every
  // live record here is >= now(), so it lands in [base_idx_, base_idx_ +
  // kBuckets); dead ones are discarded.
  while (!overflow_.empty() &&
         bucket_index(overflow_.front().at_ns) < base_idx_ + kBuckets) {
    const Rec rec = overflow_.front();
    std::pop_heap(overflow_.begin(), overflow_.end(), rec_after);
    overflow_.pop_back();
    if (rec_live(rec)) {
      wheel_insert(rec);
    } else {
      release_slot(rec.slot);
    }
  }
  clean_overflow_top();
}

bool EventLoop::locate_next(bool* from_overflow) {
  for (;;) {
    if (live_count_ == 0) return false;
    if (wheel_count_ > 0) {
      const std::uint64_t found = next_occupied(hint_idx_);
      if (found != kNoBucket) {
        hint_idx_ = found;
        if (found != active_idx_) activate(found);
        if (!prune_active_head()) continue;
        *from_overflow = false;
        return true;
      }
      // The hint can overshoot tombstone buckets stranded behind it by a
      // time jump (their ring slots alias earlier window positions).
      // Rescan from the base: every set bit is visible from there, and
      // each tombstone bucket found gets pruned, so this terminates.
      hint_idx_ = base_idx_;
      continue;
    }
    clean_overflow_top();
    if (!overflow_.empty()) {
      *from_overflow = true;
      return true;
    }
  }
}

bool EventLoop::run_one() {
  Rec rec;
  bool have = false;
  // Fast path: the cursor run_one/drain_trains left behind is still pinned
  // on the active bucket (an insert into an earlier bucket lowers
  // hint_idx_; one into the active bucket keeps it sorted), so the
  // earliest live record is at its head — no bitmap scan needed. Overflow
  // records sit beyond the wheel horizon by construction, so they can
  // never beat a wheel record.
  if (active_idx_ != kNoBucket && hint_idx_ == active_idx_ &&
      prune_active_head()) {
    rec = pop_active();
    have = true;
  }
  if (!have) {
    bool from_overflow = false;
    if (!locate_next(&from_overflow)) return false;
    if (from_overflow) {
      rec = overflow_.front();
      std::pop_heap(overflow_.begin(), overflow_.end(), rec_after);
      overflow_.pop_back();
      clean_overflow_top();
    } else {
      rec = pop_active();
    }
  }

  QUICSTEPS_AUDIT(rec.at_ns >= now_.ns(),
                  "calendar queue surfaced an event before now()");
  QUICSTEPS_AUDIT((rec.cls & kPostClsBit) != 0 ||
                      (rec.slot < slots_.size() && slots_[rec.slot].live),
                  "calendar queue surfaced a record for a dead slab slot");
  execute(rec);
  return true;
}

void EventLoop::execute(const Rec& rec) {
  DrainFn fn;
  void* ctx;
  std::uint32_t payload;
  EventClass cls;
  std::uint32_t line = kNoLine;
  if (rec.cls & kPostClsBit) {
    // Copy the channel out: drains_ never shrinks, but the callback may
    // register more channels and reallocate the vector.
    const DrainChannel& ch = drains_[rec.cls & kChannelMask];
    fn = ch.fn;
    ctx = ch.ctx;
    cls = ch.cls;
    line = ch.line;
    payload = rec.slot;  // posted: the payload rides in the record
    --live_count_;
  } else {
    // Copy the callback out before running: it may schedule new events
    // into this very slot (recycled via the free list) or cancel others.
    const Slot& s = slots_[rec.slot];
    fn = s.fn;
    ctx = s.ctx;
    payload = s.payload;
    cls = static_cast<EventClass>(rec.cls);
    deactivate_slot(rec.slot);
    release_slot(rec.slot);
  }
  if constexpr (kLoopProfilingEnabled) {
    ++stats_.executed[static_cast<std::size_t>(cls)];
    ++stats_.drain_executed;
  }
  advance_now(Time::from_ns(rec.at_ns));
  if (line != kNoLine) {
    // The line's front ran: arm the next entry with its posted (at, seq)
    // before the callback, so the queue holds it exactly as if it had been
    // queued at post time.
    DelayLine& l = lines_[line];
    if (!l.empty() && l.front().seq == rec.seq) {
      l.pop_front();
      if (!l.empty()) enqueue(l.front());
    }
  }
  fn(ctx, payload);
}

std::size_t EventLoop::drain_trains(Time deadline) {
  std::size_t n = 0;
  for (;;) {
    // The fast path is only sound while the active bucket is the front of
    // the queue: an insert into an earlier bucket moves hint_idx_ below it
    // (an insert into the bucket itself keeps it sorted).
    if (active_idx_ == kNoBucket || hint_idx_ != active_idx_) break;
    const Rec& head = wheel_[active_idx_ & kMask][active_head_];
    if (!rec_live(head)) break;  // cancelled since the sort
    if (head.at_ns > deadline.ns()) break;
    const Rec rec = pop_active();
    ++n;
    if constexpr (kLoopProfilingEnabled) ++stats_.drain_batched;
    const bool bucket_done = active_idx_ == kNoBucket;
    execute(rec);
    if (bucket_done) {
      // The bucket is drained but the train may continue in the next one:
      // re-position the cursor (locate_next prunes and sorts exactly as it
      // would for run_one) and let the loop conditions decide. When the
      // next record is cancelled, past the deadline, or from the overflow
      // heap, the cursor state is left for run_one to consume.
      bool from_overflow = false;
      if (!locate_next(&from_overflow) || from_overflow) break;
    }
  }
  return n;
}

std::size_t EventLoop::run() {
  std::size_t n = 0;
  while (run_one()) {
    ++n;
    n += drain_trains(Time::infinite());
  }
  return n;
}

std::size_t EventLoop::run_until(Time deadline) {
  std::size_t n = 0;
  bool from_overflow = false;
  while (locate_next(&from_overflow)) {
    const std::int64_t at =
        from_overflow ? overflow_.front().at_ns
                      : wheel_[active_idx_ & kMask][active_head_].at_ns;
    if (at > deadline.ns()) break;
    run_one();
    ++n;
    n += drain_trains(deadline);
  }
  if (now_ < deadline) advance_now(deadline);
  return n;
}

Time EventLoop::next_event_time() const {
  if (live_count_ == 0) return Time::infinite();
  // Earliest live wheel record: scan occupied buckets from the front and
  // take the min over live records of the first bucket that has any
  // (buckets partition time, so no later bucket can beat it). The active
  // bucket's records before its head have already run.
  std::uint64_t idx = std::max(base_idx_, hint_idx_);
  while ((idx = next_occupied(idx)) != kNoBucket) {
    const std::vector<Rec>& b = wheel_[idx & kMask];
    const Rec* best = nullptr;
    for (std::size_t i = idx == active_idx_ ? active_head_ : 0; i < b.size();
         ++i) {
      if (!rec_live(b[i])) continue;
      if (best == nullptr || rec_before(b[i], *best)) best = &b[i];
    }
    if (best != nullptr) return Time::from_ns(best->at_ns);
    ++idx;  // tombstone-only bucket; the next pop sweeps it
  }
  // clean_overflow_top() keeps the overflow top live.
  if (!overflow_.empty()) return Time::from_ns(overflow_.front().at_ns);
  return Time::infinite();
}

}  // namespace quicsteps::sim
