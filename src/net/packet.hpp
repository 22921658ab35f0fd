// The unit of transmission in the simulator.
//
// Packets carry no payload bytes — only sizes and the metadata the
// measurement study needs: transport packet numbers, the user-space pacer's
// intended release time (SO_TXTIME analogue), GSO buffer membership, and the
// timestamps stamped along the path. Packets are small value types; they are
// copied freely (the wire tap keeps copies, like a real capture does).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/data_rate.hpp"
#include "sim/time.hpp"

namespace quicsteps::net {

enum class PacketKind : std::uint8_t {
  kQuicData,
  kQuicAck,
  kQuicControl,  // handshake / connection management
  kTcpData,
  kTcpAck,
};

const char* to_string(PacketKind kind);

/// Inclusive packet-number (QUIC) or sequence-index (TCP) range.
struct AckBlock {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};

/// Acknowledgment payload carried by ACK packets of either transport.
struct TransportAck {
  std::vector<AckBlock> blocks;  // descending, blocks[0].last = largest
  sim::Duration ack_delay;
  /// Piggybacked MAX_DATA grant (QUIC connection flow control); 0 = none.
  std::int64_t max_data = 0;
  std::uint64_t largest() const { return blocks.empty() ? 0 : blocks[0].last; }
};

struct Packet {
  /// Globally unique per simulation; assigned by the sender stack.
  std::uint64_t id = 0;
  /// Flow the packet belongs to (one flow per connection direction).
  std::uint32_t flow = 0;
  // The three one-byte fields share the word after `flow`.
  PacketKind kind = PacketKind::kQuicData;
  /// Carries the transfer's last chunk (QUIC STREAM FIN, TCP's last segment).
  bool fin = false;
  /// True when the stack attached an SCM_TXTIME release timestamp.
  bool has_txtime = false;
  /// Size on the wire, including all headers.
  std::int64_t size_bytes = 0;
  /// Transport-level packet number (QUIC PN or TCP segment sequence index).
  std::uint64_t packet_number = 0;

  // --- transport payload metadata ------------------------------------------
  /// STREAM chunk carried by a data packet (-1 offset = no stream data).
  std::int64_t stream_offset = -1;
  std::int64_t stream_length = 0;
  /// ACK frame carried by an ACK packet.
  std::shared_ptr<const TransportAck> ack;

  // --- user-space pacing metadata -----------------------------------------
  /// Requested kernel release time (valid when has_txtime).
  sim::Time txtime;
  /// The pacer's intended send time, logged by the server for the precision
  /// metric (present even when txtime is not passed to the kernel).
  sim::Time expected_send_time;

  // --- GSO metadata --------------------------------------------------------
  /// Nonzero when this packet was part of a GSO buffer handed to the kernel
  /// in one sendmsg call.
  std::uint64_t gso_buffer_id = 0;
  std::uint32_t gso_segment_index = 0;
  std::uint32_t gso_segment_count = 0;
  /// Paced-GSO kernel patch: per-buffer pacing rate (zero = unpaced GSO).
  DataRate gso_pacing_rate;
  /// Segments carried by a GSO super-packet. A GSO buffer traverses the
  /// qdisc layer as one unit (this is why GSO defeats qdisc pacing) and is
  /// expanded into wire packets at the NIC/driver boundary.
  std::shared_ptr<const std::vector<Packet>> gso_segments;

  bool is_gso_buffer() const {
    return gso_segments != nullptr && !gso_segments->empty();
  }

  // --- path timestamps ------------------------------------------------------
  /// When user space handed the packet (or its GSO buffer) to the kernel.
  sim::Time kernel_entry_time;
  /// Stamped by the wire tap when the last bit leaves the server NIC.
  sim::Time wire_time;

  std::string to_string() const;
};

// The slab moves a Packet in at put() and out at take(), and endpoints
// pass it by value, so its size is per-packet cost.
static_assert(sizeof(Packet) == 136, "Packet must stay 136 bytes");

class PacketSlab;

/// Anything that accepts packets. Components form a chain: the caller has
/// already accounted for all timing; deliver() is invoked at the simulated
/// instant the packet arrives at this component.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(Packet pkt) = 0;
  /// The ref entry: the packet already sits in `slab` under `ref` (a
  /// PacketSlab::Ref), and this sink now owns that ref. Kernel hops
  /// (PacketHop, packet_slab.hpp) override it and pass the ref on. The
  /// default is an endpoint's: it takes the packet out of the slab and
  /// calls deliver(Packet).
  virtual void deliver_ref(PacketSlab& slab, std::uint32_t ref);
};

/// A sink that appends every packet to a vector (test helper and capture
/// buffer).
class CollectorSink final : public PacketSink {
 public:
  void deliver(Packet pkt) override { packets_.push_back(std::move(pkt)); }
  const std::vector<Packet>& packets() const { return packets_; }
  std::vector<Packet>& packets() { return packets_; }
  void clear() { packets_.clear(); }

 private:
  std::vector<Packet> packets_;
};

}  // namespace quicsteps::net
