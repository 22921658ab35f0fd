#include "kernel/qdisc_fq_codel.hpp"

#include <cmath>

namespace quicsteps::kernel {

namespace {
// RFC 8289 defaults (and fq_codel's).
constexpr sim::Duration kTarget = sim::Duration::millis(5);
constexpr sim::Duration kInterval = sim::Duration::millis(100);
}  // namespace

void FqCodelQdisc::deliver_ref(net::PacketSlab& slab,
                               net::PacketSlab::Ref ref) {
  note_arrival(slab, ref);
  if (static_cast<std::int64_t>(queue_.size()) >= config_.limit_packets) {
    drop(ref);
    return;
  }
  queue_.push_back(Entry{ref, loop_.now()});
  schedule_drain();
}

void FqCodelQdisc::schedule_drain() {
  if (drain_scheduled_ || queue_.empty()) return;
  drain_scheduled_ = true;
  const sim::Time start = sim::max(loop_.now(), drain_free_);
  const sim::Duration tx =
      config_.drain_rate.transmit_time(slab_.size_bytes(queue_.front().ref));
  drain_free_ = start + tx;
  loop_.schedule_at<&FqCodelQdisc::on_drain>(drain_free_,
                                             sim::EventClass::kQueue, this);
}

void FqCodelQdisc::on_drain() {
  drain_scheduled_ = false;
  drain_one();
  schedule_drain();
}

void FqCodelQdisc::drain_one() {
  while (!queue_.empty()) {
    const Entry entry = queue_.front();
    queue_.pop_front();
    const sim::Duration sojourn = loop_.now() - entry.enqueue_time;
    if (codel_should_drop(loop_.now(), sojourn)) {
      ++codel_drops_;
      drop(entry.ref);
      continue;  // CoDel drops and dequeues the next packet
    }
    forward(entry.ref);
    return;
  }
}

bool FqCodelQdisc::codel_should_drop(sim::Time now, sim::Duration sojourn) {
  // RFC 8289 dequeue logic, condensed: track how long the sojourn time has
  // continuously exceeded kTarget; once it has for a full kInterval,
  // enter dropping state and drop at intervals shrinking with 1/sqrt(count).
  const bool above = sojourn >= kTarget;
  if (!above) {
    first_above_time_ = sim::Time::infinite();
    dropping_ = false;
    return false;
  }
  if (first_above_time_.is_infinite()) {
    first_above_time_ = now + kInterval;
    return false;
  }
  if (!dropping_) {
    if (now < first_above_time_) return false;
    dropping_ = true;
    // Restart from the last count if we re-entered dropping recently
    // (RFC 8289 section 5.4, the "count decay" heuristic).
    count_ = (count_ > 2 && last_count_ == count_) ? count_ - 2 : 1;
    last_count_ = count_;
    drop_next_ =
        now + kInterval * (1.0 / std::sqrt(static_cast<double>(count_)));
    return true;
  }
  if (now >= drop_next_) {
    ++count_;
    last_count_ = count_;
    drop_next_ = drop_next_ +
                 kInterval * (1.0 / std::sqrt(static_cast<double>(count_)));
    return true;
  }
  return false;
}

}  // namespace quicsteps::kernel
