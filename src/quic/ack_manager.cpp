#include "quic/ack_manager.hpp"

#include <algorithm>

#include "check/audit.hpp"
#include "quic/rtt_estimator.hpp"

namespace quicsteps::quic {

namespace {
/// ACK ranges one ACK carries at most: the newest, plus the oldest.
constexpr std::size_t kMaxAckBlocks = 32;
}  // namespace

bool AckManager::on_packet_received(std::uint64_t pn, bool ack_eliciting,
                                    sim::Time now) {
  const bool fresh = received_.insert(pn);
  if (!fresh) return false;
  if (pn >= received_.largest()) largest_recv_time_ = now;
  if (ack_eliciting) {
    if (pending_ack_eliciting_ == 0) first_pending_time_ = now;
    ++pending_ack_eliciting_;
  }
  return true;
}

sim::Time AckManager::ack_deadline() const {
  if (pending_ack_eliciting_ == 0) return sim::Time::infinite();
  if (ack_due_now()) return first_pending_time_;
  return first_pending_time_ + kMaxAckDelay;
}

void AckManager::build_ack(sim::Time now, std::int64_t max_data,
                           net::TransportAck& ack) {
  std::vector<net::AckBlock>& blocks = ack.blocks;
  blocks.clear();
  blocks.reserve(std::min(received_.interval_count(), kMaxAckBlocks));
  received_.to_ack_blocks(kMaxAckBlocks, blocks);
  // RFC 9000 §19.3.1: each range has first <= last, and ranges descend
  // with at least one unacknowledged number between neighbours.
  for (std::size_t i = 0; check::kAuditEnabled && i < blocks.size(); ++i) {
    QUICSTEPS_AUDIT(blocks[i].first <= blocks[i].last &&
                        (i + 1 == blocks.size() ||
                         blocks[i].first > blocks[i + 1].last + 1),
                    "AckManager: ACK ranges must descend, with gaps");
  }
  ack.ack_delay = now - largest_recv_time_;
  ack.max_data = max_data;
  pending_ack_eliciting_ = 0;
  first_pending_time_ = sim::Time::infinite();
}

}  // namespace quicsteps::quic
