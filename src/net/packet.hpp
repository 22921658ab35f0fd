// The unit of transmission in the simulator.
//
// Packets carry no payload bytes — only sizes and the metadata the
// measurement study needs: transport packet numbers, the user-space pacer's
// intended release time (SO_TXTIME analogue), GSO buffer membership, and the
// timestamps stamped along the path. A Packet is plain data: it owns
// nothing, so copying one is a memcpy (the wire tap keeps copies, like a
// real capture does). What a packet carries beyond its fields lives in the
// net::PacketSlab beside it: an ACK packet's frame (PacketSlab::ack) and a
// GSO carrier's segments (PacketSlab::next).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
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

/// The ACK frame of an ACK packet of either transport. Frames live in the
/// slab's frame pool, attached to their packet's slot (PacketSlab::ack),
/// and keep their block capacity when the pool reuses them.
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

  // --- path timestamps ------------------------------------------------------
  /// When user space handed the packet (or its GSO buffer) to the kernel.
  sim::Time kernel_entry_time;
  /// Stamped by the wire tap when the last bit leaves the server NIC.
  sim::Time wire_time;

  std::string to_string() const;
};

// The slab copies a Packet in at put(), and the tap's capture copies it
// out, so its size is per-packet cost.
static_assert(sizeof(Packet) == 104, "Packet must stay 104 bytes");
static_assert(std::is_trivially_copyable_v<Packet>,
              "Packet is plain data: side payloads live in the slab");

class PacketSlab;

/// Anything that accepts packets. Components form a chain: the caller has
/// already accounted for all timing; deliver_ref() is invoked at the
/// simulated instant the packet arrives at this component.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// The one entry: the packet sits in `slab` under `ref` (a
  /// PacketSlab::Ref), and this sink now owns that ref. Kernel hops
  /// (PacketHop, packet_slab.hpp) pass it on; an endpoint reads the
  /// packet in place and retires the ref.
  virtual void deliver_ref(PacketSlab& slab, std::uint32_t ref) = 0;
};

/// A sink that takes every packet out of the slab into a vector (test
/// helper and capture buffer).
class CollectorSink final : public PacketSink {
 public:
  void deliver_ref(PacketSlab& slab, std::uint32_t ref) override;
  const std::vector<Packet>& packets() const { return packets_; }
  std::vector<Packet>& packets() { return packets_; }
  void clear() { packets_.clear(); }

 private:
  std::vector<Packet> packets_;
};

}  // namespace quicsteps::net
