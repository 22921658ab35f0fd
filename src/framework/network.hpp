// The datapath fabric: the paper's Figure 1 path, built one way for any
// sender count.
//
//   SenderPath      one sender's kernel egress: [qdisc under test] -> NIC
//                   (1 Gbit/s, optional LaunchTime) -> the wire.
//   BottleneckPath  everything the senders share: WIRE TAP (sniffer) ->
//                   TBF 40 Mbit/s (DROPS HAPPEN HERE) -> netem +20 ms ->
//                   client UDP receiver -> per-flow dispatch table, plus
//                   the ACK return path (netem +20 ms -> server receiver
//                   -> dispatch back to the owning sender).
//
// framework::Network (flows.hpp) composes N sender hosts onto one shared
// path. Hand-wired single-flow experiments (ablations that swap in a
// custom endpoint) build the same two pieces directly and register their
// endpoints with BottleneckPath::register_flow.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/conservation_auditor.hpp"
#include "framework/topology.hpp"
#include "kernel/nic.hpp"
#include "kernel/os_model.hpp"
#include "kernel/qdisc.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "kernel/udp_socket.hpp"
#include "net/counters.hpp"
#include "net/flow_index.hpp"
#include "net/flow_table.hpp"
#include "net/packet_slab.hpp"
#include "net/wire_tap.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace quicsteps::framework {

/// One sender's kernel egress chain, built per `config.server_qdisc`:
/// the qdisc under test feeding a NIC that serializes onto `wire`. `slab`
/// is the shared packet slab of the BottleneckPath behind `wire`.
class SenderPath {
 public:
  SenderPath(sim::EventLoop& loop, net::PacketSlab& slab,
             const TopologyConfig& config, kernel::OsModel& os,
             net::PacketSink* wire);

  /// Head of the chain: the stack's UdpSocket target.
  net::PacketSink* egress() { return qdisc_.get(); }
  kernel::Qdisc& qdisc() { return *qdisc_; }
  const kernel::Qdisc& qdisc() const { return *qdisc_; }
  const kernel::Nic& nic() const { return *nic_; }

  /// Registers this sender's kernel stages (qdisc, NIC) on `bus` under
  /// `prefix` and installs their span hookups.
  void set_trace(obs::TraceBus& bus, const std::string& prefix);

 private:
  std::unique_ptr<kernel::Nic> nic_;
  std::unique_ptr<kernel::Qdisc> qdisc_;
};

/// Everything between the senders' NICs and the endpoints, shared by all
/// flows: tap, bottleneck TBF, both netem delays, both UDP receivers, and
/// the flow-id dispatch tables that route each packet to the endpoint
/// owning its flow.
///
/// `server_recv_os` models the kernel that runs the server-side ACK
/// receiver (the first sender host's OS). The constructor forks `rng`
/// three times, in this order: client OS = fork(2), data netem = fork(3),
/// ack netem = fork(4).
class BottleneckPath {
 public:
  BottleneckPath(sim::EventLoop& loop, const TopologyConfig& config,
                 sim::Rng& rng, kernel::OsModel& server_recv_os);

  /// Where sender NICs serialize to: the tap (then TBF, netem, client).
  net::PacketSink* wire_ingress() { return tap_.get(); }
  /// Where client endpoints send ACKs: netem back toward the servers.
  net::PacketSink* ack_ingress() { return &ack_netem_; }

  /// Room for `flows` more registrations in both dispatch tables and the
  /// drop attribution, so fabric-scale registration never regrows them.
  void reserve_flows(std::size_t flows);
  /// Routes flow `id`'s data packets (client side) to `data` and its ACKs
  /// (server side) to `ack`. Registration appends; the routes take effect
  /// at finish_flow_registration(). Unregistered ids trip QUICSTEPS_AUDIT.
  void register_flow(std::uint32_t id, net::PacketSink* data,
                     net::PacketSink* ack);
  /// Builds the dispatch tables and the drop attribution once. Call after
  /// the last register_flow and before the first packet.
  void finish_flow_registration();

  net::WireTap& tap() { return *tap_; }
  const net::WireTap& tap() const { return *tap_; }
  /// The shared packet slab. Sender paths and endpoints built on this
  /// bottleneck join the same slab.
  net::PacketSlab& slab() { return slab_; }
  const kernel::TbfQdisc& bottleneck() const { return bottleneck_; }
  const kernel::NetemQdisc& data_netem() const { return data_netem_; }
  const kernel::NetemQdisc& ack_netem() const { return ack_netem_; }
  kernel::OsModel& client_os() { return client_os_; }

  /// Total bottleneck drops — the paper's "dropped packets" column.
  std::int64_t bottleneck_drops() const {
    return bottleneck_.counters().packets_dropped;
  }
  /// Drops attributed to one flow (who actually lost the buffer race).
  std::int64_t bottleneck_drops(std::uint32_t flow) const;

  /// Appends the shared stages to a counter table / conservation auditor
  /// (the caller adds its per-sender qdisc stages). The auditor borrows
  /// this path's counters — audit() while it is alive.
  void add_counters(net::CountersTable& table) const;
  void add_conservation_stages(check::ConservationAuditor& auditor) const;

  /// Registers every shared stage (tap, bottleneck, netems, receivers) on
  /// `bus` and installs their span hookups — component names match the
  /// counter-table rows.
  void set_trace(obs::TraceBus& bus);

 private:
  kernel::OsModel client_os_;

  // The flat packet store every datapath component shares — constructed
  // before the components so it outlives every one holding a reference.
  net::PacketSlab slab_;

  // Dispatch tables outlive the receivers that deliver into them.
  net::FlowTableSink data_dispatch_;
  net::FlowTableSink ack_dispatch_;

  // Data path, downstream-first construction order.
  std::unique_ptr<kernel::UdpReceiver> client_receiver_;
  kernel::NetemQdisc data_netem_;
  kernel::TbfQdisc bottleneck_;
  std::unique_ptr<net::WireTap> tap_;

  // ACK path.
  std::unique_ptr<kernel::UdpReceiver> server_receiver_;
  kernel::NetemQdisc ack_netem_;

  // Per-flow drop attribution: counts by registration slot, found through
  // a dense flow index. A drop costs one table load and one increment.
  net::FlowIndex drop_index_;
  std::vector<std::int64_t> drop_counts_;
};

}  // namespace quicsteps::framework
