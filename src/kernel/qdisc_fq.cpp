#include "kernel/qdisc_fq.hpp"

#include <algorithm>
#include <utility>

namespace quicsteps::kernel {

namespace {

/// Strict-weak "releases later" on (at, seq): std::push_heap builds a
/// max-heap, so heaping with this puts the earliest (at, seq) at front —
/// a min-heap reproducing the old multimap's (timestamp, insertion) order.
template <typename T>
bool releases_later(const T& a, const T& b) {
  return a.at > b.at || (a.at == b.at && a.seq > b.seq);
}

}  // namespace

FqQdisc::FlowQueue& FqQdisc::flow_for(std::uint32_t flow) {
  std::uint32_t index = flow_index_.find(flow);
  if (index == net::FlowIndex::kNone) {
    // First packet of a new flow: create its queue.
    index = flow_index_.add(flow);
    flows_.emplace_back();
    flows_.back().flow = flow;
  }
  return flows_[index];
}

const FqQdisc::FlowQueue* FqQdisc::find_flow(std::uint32_t flow) const {
  const std::uint32_t index = flow_index_.find(flow);
  return index != net::FlowIndex::kNone ? &flows_[index] : nullptr;
}

void FqQdisc::set_flow_rate(std::uint32_t flow, net::DataRate rate) {
  flow_for(flow).rate = rate;
}

std::size_t FqQdisc::queued_packets(std::uint32_t flow) const {
  const FlowQueue* fq = find_flow(flow);
  return fq != nullptr ? fq->heap.size() : 0;
}

void FqQdisc::push_entry(FlowQueue& fq, Entry entry) {
  const bool new_head =
      fq.heap.empty() || releases_later<Entry>(fq.heap.front(), entry);
  fq.heap.push_back(std::move(entry));
  std::push_heap(fq.heap.begin(), fq.heap.end(), releases_later<Entry>);
  ++total_queued_;
  if (new_head) {
    push_global_head(static_cast<std::uint32_t>(&fq - flows_.data()));
  }
}

net::Packet FqQdisc::pop_head(FlowQueue& fq) {
  std::pop_heap(fq.heap.begin(), fq.heap.end(), releases_later<Entry>);
  net::Packet pkt = std::move(fq.heap.back().pkt);
  fq.heap.pop_back();
  --total_queued_;
  return pkt;
}

void FqQdisc::push_global_head(std::uint32_t flow_index) {
  const Entry& head = flows_[flow_index].heap.front();
  global_.push_back({head.at, head.seq, flow_index});
  std::push_heap(global_.begin(), global_.end(), releases_later<Head>);
}

void FqQdisc::prune_global() {
  // Lazy deletion: an element is live only while it still names its
  // flow's current head. Stale elements were pushed for earlier heads,
  // whose keys were >= the key that superseded them — so the pruned top
  // is always the true minimum over flow heads.
  while (!global_.empty()) {
    const Head& top = global_.front();
    const FlowQueue& fq = flows_[top.flow_index];
    if (!fq.heap.empty() && fq.heap.front().at == top.at &&
        fq.heap.front().seq == top.seq) {
      return;
    }
    std::pop_heap(global_.begin(), global_.end(), releases_later<Head>);
    global_.pop_back();
  }
}

void FqQdisc::deliver(net::Packet pkt) {
  note_arrival(pkt);

  if (static_cast<std::int64_t>(total_queued_) >= config_.limit_packets) {
    drop(pkt);
    return;
  }

  const sim::Time now = loop_.now();
  FlowQueue& fq = flow_for(pkt.flow);
  const bool paced = !fq.rate.is_zero();

  // The release time is the SO_TXTIME stamp (now if absent), pushed out to
  // the flow's pacing-rate eligibility when a maxrate is set.
  sim::Time release = pkt.has_txtime ? pkt.txtime : now;
  if (paced && fq.rate_next > release) release = fq.rate_next;

  if (release <= now) {
    // No timestamp, or timestamp already due (and the flow's rate allows
    // it): fq transmits immediately.
    if (paced) fq.rate_next = now + fq.rate.transmit_time(pkt.size_bytes);
    forward(std::move(pkt));
    return;
  }
  if (config_.horizon_drop && pkt.has_txtime &&
      pkt.txtime > now + config_.horizon) {
    drop(pkt);
    return;
  }

  if (paced) fq.rate_next = release + fq.rate.transmit_time(pkt.size_bytes);
  push_entry(fq, {release, next_seq_++, std::move(pkt)});
  arm_watchdog();
}

void FqQdisc::arm_watchdog() {
  prune_global();
  if (global_.empty()) return;
  const sim::Time head = global_.front().at;
  if (watchdog_.pending() && watchdog_at_ <= head) return;
  watchdog_.cancel();
  // hrtimer wakeup: fires at the head timestamp plus kernel slack. All
  // packets due by then leave in one softirq.
  watchdog_at_ = head;
  const sim::Time fire = head + os_.draw_kernel_release_delay();
  watchdog_ = loop_.schedule_at<&FqQdisc::on_watchdog>(
      fire, sim::EventClass::kQueue, this);
}

void FqQdisc::on_watchdog() {
  drain_due(loop_.now());
  watchdog_at_ = sim::Time::infinite();
  arm_watchdog();
}

void FqQdisc::drain_due(sim::Time now) {
  // Gather every flow whose head is due into this softirq's service round,
  // in global (release, arrival) order.
  service_.clear();
  for (;;) {
    prune_global();
    if (global_.empty() || global_.front().at > now) break;
    const std::uint32_t index = global_.front().flow_index;
    std::pop_heap(global_.begin(), global_.end(), releases_later<Head>);
    global_.pop_back();
    if (flows_[index].in_service) continue;  // duplicate head element
    flows_[index].in_service = true;
    service_.push_back(index);
  }
  if (service_.empty()) return;

  if (service_.size() == 1) {
    // One due flow — the only case a per-sender qdisc ever sees. Drain in
    // (release, arrival) order with no DRR bookkeeping: byte-for-byte the
    // historical single-flow behavior.
    FlowQueue& fq = flows_[service_.front()];
    while (!fq.heap.empty() && fq.heap.front().at <= now) {
      forward(pop_head(fq));
    }
    fq.in_service = false;
    if (!fq.heap.empty()) push_global_head(service_.front());
    return;
  }

  // Several flows due at once: DRR round-robin, quantum bytes of credit
  // per visit, so simultaneously due flows share the softirq fairly
  // instead of strictly by timestamp (sch_fq's round-robin among
  // eligible flows).
  std::size_t live = service_.size();
  while (live > 0) {
    for (const std::uint32_t index : service_) {
      FlowQueue& fq = flows_[index];
      if (!fq.in_service) continue;
      fq.deficit += config_.quantum_bytes;
      while (!fq.heap.empty() && fq.heap.front().at <= now &&
             fq.heap.front().pkt.size_bytes <= fq.deficit) {
        fq.deficit -= fq.heap.front().pkt.size_bytes;
        forward(pop_head(fq));
      }
      if (fq.heap.empty() || fq.heap.front().at > now) {
        fq.in_service = false;
        fq.deficit = 0;  // credit does not persist across rounds
        --live;
        if (!fq.heap.empty()) push_global_head(index);
      }
    }
  }
}

}  // namespace quicsteps::kernel
