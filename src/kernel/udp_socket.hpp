// UDP socket model: the boundary between a user-space QUIC stack and the
// kernel egress path.
//
// Sending charges the calling thread a syscall cost (returned to the caller,
// which models the stack's event loop occupancy) and injects the packet (or
// GSO buffer) into the egress chain. SO_TXTIME is modelled by the
// `has_txtime` field packets already carry. Receive hands datagrams to the
// stack's sink after an epoll wakeup latency; the receive buffer is sized per
// the paper (50 MiB — large enough to never drop in these experiments, but
// enforced).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "kernel/gso.hpp"
#include "kernel/os_model.hpp"
#include "net/counters.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::kernel {

class UdpSocket : public obs::TraceSource {
 public:
  /// Sent packets enter `slab` here and travel the egress chain as refs.
  UdpSocket(sim::EventLoop& loop, net::PacketSlab& slab, OsModel& os,
            net::PacketSink* egress)
      : loop_(loop), slab_(slab), os_(os), egress_(egress) {}

  /// One sendmsg: injects the packet into the egress chain now and returns
  /// the syscall cost the calling thread spent.
  sim::Duration sendmsg(net::Packet pkt);

  /// One sendmsg with UDP_SEGMENT: all segments travel as a single GSO
  /// buffer, each segment put into the slab behind the carrier
  /// (make_gso_buffer). `gso_pacing_rate` is the paced-GSO patch extension
  /// (zero for stock GSO). `segments` is left empty with its capacity, so
  /// the caller's batch is reused, not regrown.
  sim::Duration sendmsg_gso(std::vector<net::Packet>& segments,
                            net::DataRate gso_pacing_rate);

  /// sendmmsg batching: one syscall, but each packet is a separate skb, so
  /// qdiscs can still pace them individually (paper Section 4.3 contrasts
  /// this with GSO). Leaves `packets` empty with its capacity.
  sim::Duration sendmmsg(std::vector<net::Packet>& packets);

  const net::Counters& counters() const { return counters_; }
  std::uint64_t syscalls() const { return syscalls_; }

 private:
  /// The kernel entry of a packet already put into the slab.
  void inject(net::PacketSlab::Ref ref);

  sim::EventLoop& loop_;
  net::PacketSlab& slab_;
  OsModel& os_;
  net::PacketSink* egress_;
  net::Counters counters_;
  std::uint64_t next_gso_id_ = 1;
  std::uint64_t syscalls_ = 0;
};

/// Receive side: delivers datagrams to the owning stack's sink after an
/// epoll wakeup latency, enforcing the configured receive buffer. Each
/// per-datagram wakeup is a drain record carrying the datagram's ref into
/// `slab`; the receiver accounts bytes off the slab's hot lane and hands
/// the ref on, so the endpoint reads the packet where it was put.
///
/// With a non-zero GRO window, packets arriving within the window of the
/// first unflushed packet are coalesced and handed to user space in one
/// wakeup (Generic Receive Offload): fewer recvmsg calls, but the receiver
/// sees — and acknowledges — bursts, which chops the ACK clock the sender
/// paces against.
class UdpReceiver final : public net::PacketHop, public obs::TraceSource {
 public:
  UdpReceiver(sim::EventLoop& loop, net::PacketSlab& slab, OsModel& os,
              std::int64_t rcvbuf_bytes, net::PacketSink* sink,
              sim::Duration gro_window = sim::Duration::zero())
      : net::PacketHop(slab),
        loop_(loop),
        os_(os),
        wakeup_channel_(loop.register_drain(sim::EventClass::kWakeup,
                                            &UdpReceiver::drain_wakeup,
                                            this)),
        rcvbuf_bytes_(rcvbuf_bytes),
        gro_window_(gro_window),
        sink_(sink) {}
  // The wakeup drain channel and the GRO timer hold `this`.
  UdpReceiver(const UdpReceiver&) = delete;
  UdpReceiver& operator=(const UdpReceiver&) = delete;

  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override;

  const net::Counters& counters() const { return counters_; }
  /// User-space wakeups performed (each models one recvmsg/recvmmsg).
  std::int64_t wakeups() const { return wakeups_; }

 private:
  void flush();
  static void drain_wakeup(void* self, std::uint32_t ref);
  /// Hands one buffered datagram to the sink (both wakeup paths).
  void release(net::PacketSlab::Ref ref);

  sim::EventLoop& loop_;
  OsModel& os_;
  sim::DrainId wakeup_channel_;
  std::int64_t rcvbuf_bytes_;
  sim::Duration gro_window_;
  std::int64_t buffered_bytes_ = 0;
  net::PacketSink* sink_;
  net::Counters counters_;
  std::vector<net::PacketSlab::Ref> gro_batch_;
  sim::EventHandle gro_timer_;
  std::int64_t wakeups_ = 0;
};

}  // namespace quicsteps::kernel
