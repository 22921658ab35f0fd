// One interface over the three endpoint families an experiment can attach
// to a sender host: a measured QUIC stack (StackServer + its event-loop
// quirks), the ideal reference QUIC server, or the kernel TCP baseline.
//
// make_flow_endpoint is the only place an experiment config turns into
// transport objects; every caller — single-flow runs and N-flow fairness
// experiments alike — gets the same construction.
#pragma once

#include <cstdint>
#include <memory>

#include <string>

#include "framework/experiment.hpp"
#include "kernel/os_model.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::framework {

/// A sender/receiver endpoint pair bound to one flow id.
class FlowEndpoint {
 public:
  virtual ~FlowEndpoint() = default;

  /// Kicks off the transfer (server send loop plus application source).
  virtual void start() = 0;

  /// Sink for this flow's data packets at the client host (register as
  /// the flow's data route on the shared path).
  virtual net::PacketSink& data_ingress() = 0;
  /// Sink for this flow's ACKs back at the server host.
  virtual net::PacketSink& ack_ingress() = 0;

  virtual bool complete() const = 0;

  /// Installs path tracing on the endpoint's user-space components (stack
  /// and socket), registering them on `bus` under `prefix`; a QUIC
  /// connection publishes its recovery samples under the stack's id.
  /// Default: the endpoint has no traceable user-space stages (TCP
  /// baseline).
  virtual void set_trace(obs::TraceBus& bus, const std::string& prefix) {
    (void)bus;
    (void)prefix;
  }

  /// Endpoint-side result fields: completion, sender stats, goodput.
  /// Wire-derived fields (gaps, trains, precision, hash, drops) come from
  /// the shared tap and are filled by the caller.
  virtual void fill_result(RunResult& result) const = 0;
};

/// Builds the endpoint `config` selects. `slab` is the shared packet slab
/// (a measured stack's socket and the client put their packets there);
/// `sender_os` is the host kernel the stack's syscalls and timers are
/// charged to; `server_egress` is the host's qdisc; `client_egress` is
/// the shared ACK return path.
std::unique_ptr<FlowEndpoint> make_flow_endpoint(
    sim::EventLoop& loop, net::PacketSlab& slab, kernel::OsModel& sender_os,
    const ExperimentConfig& config, std::uint32_t flow_id,
    net::PacketHop* server_egress, net::PacketSink* client_egress);

}  // namespace quicsteps::framework
