#include "framework/endpoint.hpp"

#include <string>
#include <utility>

#include "cc/cubic.hpp"
#include "framework/runner.hpp"
#include "metrics/goodput.hpp"
#include "quic/app_source.hpp"
#include "quic/client.hpp"
#include "quic/server.hpp"
#include "stacks/event_loop_model.hpp"
#include "tcp/tcp_client.hpp"
#include "tcp/tcp_server.hpp"

namespace quicsteps::framework {

namespace {

/// A measured stack (StackServer) or the ideal reference server, plus the
/// downloading client and the application source feeding the connection.
class QuicEndpoint final : public FlowEndpoint {
 public:
  QuicEndpoint(sim::EventLoop& loop, net::PacketSlab& slab,
               kernel::OsModel& sender_os, const ExperimentConfig& config,
               std::uint32_t flow_id, net::PacketSink* server_egress,
               net::PacketSink* client_egress) {
    const stacks::StackProfile profile = profile_for(config);
    quic::Connection::Config conn_cfg;
    conn_cfg.total_payload_bytes = config.payload_bytes;
    conn_cfg.flow = flow_id;
    conn_cfg.flow_control_credit = profile.flow_control_credit;
    conn_cfg.app_limited_source =
        config.workload.kind != quic::SourceKind::kBulk;

    if (config.stack == StackKind::kIdealQuic) {
      conn_cfg.cc.algorithm = config.cca;
      ideal_ = std::make_unique<quic::ReferenceServer>(loop, conn_cfg,
                                                       server_egress);
    } else {
      stack_ = std::make_unique<stacks::StackServer>(
          loop, slab, sender_os, profile, conn_cfg, server_egress);
    }

    client_ = std::make_unique<quic::Client>(
        loop,
        quic::Client::Config{.flow = flow_id,
                             .ack = {},
                             .expected_payload_bytes = config.payload_bytes,
                             .flow_control_credit =
                                 profile.flow_control_credit},
        client_egress);

    source_ = std::make_unique<quic::AppSource>(
        loop, connection(), config.workload, [this] {
          if (stack_ != nullptr) {
            stack_->poke();
          } else {
            ideal_->start();  // re-enter the ideal send loop
          }
        });
  }

  void start() override {
    if (stack_ != nullptr) {
      stack_->start();
    } else {
      ideal_->start();
    }
    source_->start();
  }

  net::PacketSink& data_ingress() override { return *client_; }
  net::PacketSink& ack_ingress() override {
    if (stack_ != nullptr) return *stack_;
    return *ideal_;
  }

  bool complete() const override { return client_->complete(); }

  void set_trace(obs::TraceBus& bus, const std::string& prefix) override {
    const std::uint16_t id = bus.register_component(prefix + "stack");
    connection().set_trace(&bus, id);  // recovery samples share the id
    if (stack_ != nullptr) {
      stack_->set_trace(&bus, id, bus.register_component(prefix + "socket"));
    } else {
      ideal_->set_trace(&bus, id);  // the ideal server has no socket
    }
  }

  void fill_result(RunResult& result) const override {
    const quic::Connection& conn = connection();
    result.completed = client_->complete();
    result.packets_sent = conn.stats().packets_sent;
    result.packets_declared_lost = conn.stats().packets_declared_lost;
    result.retransmissions = conn.stats().packets_retransmitted;
    result.pacer_releases = conn.pacer().stats().packets_released;
    result.pacer_deferrals = conn.pacer().stats().deferrals;
    if (const auto* cubic =
            dynamic_cast<const cc::Cubic*>(&conn.controller())) {
      result.cc_rollbacks = cubic->rollbacks_performed();
    }
    if (stack_ != nullptr) {
      result.send_syscalls =
          static_cast<std::int64_t>(stack_->stats().send_syscalls);
      result.cpu_time_ms = stack_->stats().cpu_time.to_millis();
    }
    result.goodput = metrics::compute_goodput(
        client_->stats().payload_bytes_received,
        client_->stats().first_packet_time,
        client_->stats().completion_time);
  }

 private:
  quic::Connection& connection() {
    return stack_ != nullptr ? stack_->connection() : ideal_->connection();
  }
  const quic::Connection& connection() const {
    return stack_ != nullptr ? stack_->connection() : ideal_->connection();
  }

  std::unique_ptr<stacks::StackServer> stack_;
  std::unique_ptr<quic::ReferenceServer> ideal_;
  std::unique_ptr<quic::Client> client_;
  std::unique_ptr<quic::AppSource> source_;
};

/// The kernel TCP baseline: segments enter the same egress qdisc directly
/// (tc treats them alike); no UDP sockets, app source, or recovery
/// samples.
class TcpEndpoint final : public FlowEndpoint {
 public:
  TcpEndpoint(sim::EventLoop& loop, const ExperimentConfig& config,
              std::uint32_t flow_id, net::PacketSink* server_egress,
              net::PacketSink* client_egress) {
    tcp::TcpServer::Config server_cfg;
    server_cfg.connection.total_payload_bytes = config.payload_bytes;
    server_cfg.connection.flow = flow_id;
    server_cfg.connection.cc.algorithm = config.cca;
    server_cfg.line_rate = config.topology.server_nic_rate;
    server_ = std::make_unique<tcp::TcpServer>(loop, server_cfg,
                                               server_egress);
    client_ = std::make_unique<tcp::TcpClient>(
        loop,
        tcp::TcpClient::Config{.flow = flow_id,
                               .expected_payload_bytes = config.payload_bytes,
                               .ack = {}},
        client_egress);
  }

  void start() override { server_->start(); }

  net::PacketSink& data_ingress() override { return *client_; }
  net::PacketSink& ack_ingress() override { return *server_; }

  bool complete() const override { return client_->complete(); }

  void fill_result(RunResult& result) const override {
    const auto& stats = server_->connection().stats();
    result.completed = client_->complete();
    result.packets_sent = stats.segments_sent;
    result.packets_declared_lost = stats.segments_declared_lost;
    result.retransmissions = stats.segments_retransmitted;
    result.goodput = metrics::compute_goodput(
        client_->stats().payload_bytes_received,
        client_->stats().first_packet_time,
        client_->stats().completion_time);
  }

 private:
  std::unique_ptr<tcp::TcpServer> server_;
  std::unique_ptr<tcp::TcpClient> client_;
};

}  // namespace

std::unique_ptr<FlowEndpoint> make_flow_endpoint(
    sim::EventLoop& loop, net::PacketSlab& slab, kernel::OsModel& sender_os,
    const ExperimentConfig& config, std::uint32_t flow_id,
    net::PacketSink* server_egress, net::PacketSink* client_egress) {
  if (config.stack == StackKind::kTcpTls) {
    return std::make_unique<TcpEndpoint>(loop, config, flow_id,
                                         server_egress, client_egress);
  }
  return std::make_unique<QuicEndpoint>(loop, slab, sender_os, config,
                                        flow_id, server_egress,
                                        client_egress);
}

}  // namespace quicsteps::framework
