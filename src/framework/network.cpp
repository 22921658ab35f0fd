#include "framework/network.hpp"

#include "kernel/qdisc_etf.hpp"
#include "kernel/qdisc_fifo.hpp"
#include "kernel/qdisc_fq.hpp"
#include "kernel/qdisc_fq_codel.hpp"

namespace quicsteps::framework {

SenderPath::SenderPath(sim::EventLoop& loop, net::PacketSlab& slab,
                       const TopologyConfig& config, kernel::OsModel& os,
                       net::PacketSink* wire) {
  kernel::Nic::Config nic_cfg;
  nic_cfg.line_rate = config.server_nic_rate;
  nic_cfg.launch_time = config.server_qdisc == QdiscKind::kEtfOffload;
  nic_cfg.drop_missed_launch = config.drop_missed_launch;
  nic_ = std::make_unique<kernel::Nic>(loop, slab, nic_cfg, os, wire);

  switch (config.server_qdisc) {
    case QdiscKind::kFifo:
      qdisc_ = std::make_unique<kernel::FifoQdisc>(loop, slab, nic_.get());
      break;
    case QdiscKind::kFqCodel: {
      kernel::FqCodelQdisc::Config cfg;
      cfg.drain_rate = config.server_nic_rate;
      qdisc_ = std::make_unique<kernel::FqCodelQdisc>(loop, slab, cfg,
                                                      nic_.get());
      break;
    }
    case QdiscKind::kFq:
      qdisc_ = std::make_unique<kernel::FqQdisc>(
          loop, slab, kernel::FqQdisc::Config{}, os, nic_.get());
      break;
    case QdiscKind::kEtf:
    case QdiscKind::kEtfOffload:
      qdisc_ = std::make_unique<kernel::EtfQdisc>(loop, slab, config.etf, os,
                                                  nic_.get());
      break;
  }
}

void SenderPath::set_trace(obs::TraceBus& bus, const std::string& prefix) {
  qdisc_->set_trace(
      &bus, bus.register_component(prefix + "qdisc/" + qdisc_->name()));
  nic_->set_trace(&bus, bus.register_component(prefix + "nic"));
}

BottleneckPath::BottleneckPath(sim::EventLoop& loop,
                               const TopologyConfig& config, sim::Rng& rng,
                               kernel::OsModel& server_recv_os)
    : client_os_(config.client_os, rng.fork(2)),
      data_dispatch_(slab_),
      ack_dispatch_(slab_),
      client_receiver_(std::make_unique<kernel::UdpReceiver>(
          loop, slab_, client_os_, config.client_rcvbuf_bytes,
          &data_dispatch_, config.client_gro_window)),
      data_netem_(loop, slab_,
                  {.delay = config.path_delay_one_way,
                   .jitter = config.path_jitter,
                   .limit_packets = config.netem_limit_packets,
                   .loss_probability = config.path_loss_probability,
                   .reorder_probability = config.path_reorder_probability},
                  rng.fork(3), client_receiver_.get()),
      bottleneck_(loop, slab_,
                  {.rate = config.bottleneck_rate,
                   .burst_bytes = config.tbf_burst_bytes,
                   .limit_bytes = config.bottleneck_buffer_bytes},
                  &data_netem_),
      tap_(std::make_unique<net::WireTap>(loop, slab_, &bottleneck_)),
      server_receiver_(std::make_unique<kernel::UdpReceiver>(
          loop, slab_, server_recv_os, config.client_rcvbuf_bytes,
          &ack_dispatch_)),
      ack_netem_(loop, slab_,
                 {.delay = config.path_delay_one_way,
                  .limit_packets = config.netem_limit_packets},
                 rng.fork(4), server_receiver_.get()) {
  bottleneck_.set_drop_observer([this](std::uint32_t flow) {
    const std::uint32_t slot = drop_index_.find(flow);
    if (slot != net::FlowIndex::kNone) ++drop_counts_[slot];
  });
}

void BottleneckPath::reserve_flows(std::size_t flows) {
  data_dispatch_.reserve(flows);
  ack_dispatch_.reserve(flows);
  drop_index_.reserve(flows);
}

void BottleneckPath::register_flow(std::uint32_t id, net::PacketSink* data,
                                   net::PacketSink* ack) {
  data_dispatch_.add_route(id, data);
  ack_dispatch_.add_route(id, ack);
  drop_index_.add(id);
}

void BottleneckPath::finish_flow_registration() {
  // The dispatch tables audit duplicate ids; attribution charges a
  // duplicate's drops to its first registration, as dispatch routes it.
  data_dispatch_.finish_routes();
  ack_dispatch_.finish_routes();
  drop_counts_.assign(drop_index_.size(), 0);
}

std::int64_t BottleneckPath::bottleneck_drops(std::uint32_t flow) const {
  const std::uint32_t slot = drop_index_.find(flow);
  return slot != net::FlowIndex::kNone ? drop_counts_[slot] : 0;
}

void BottleneckPath::add_counters(net::CountersTable& table) const {
  table.add("bottleneck/tbf", bottleneck_.counters());
  table.add("path/data_netem", data_netem_.counters());
  table.add("path/ack_netem", ack_netem_.counters());
}

void BottleneckPath::set_trace(obs::TraceBus& bus) {
  // Registration order is wire order; the names mirror add_counters rows
  // so the trace's component table and the counter table line up.
  tap_->set_trace(&bus, bus.register_component("wire/tap"));
  bottleneck_.set_trace(&bus, bus.register_component("bottleneck/tbf"));
  data_netem_.set_trace(&bus, bus.register_component("path/data_netem"));
  client_receiver_->set_trace(&bus, bus.register_component("client/udp_rx"));
  ack_netem_.set_trace(&bus, bus.register_component("path/ack_netem"));
  server_receiver_->set_trace(&bus, bus.register_component("server/udp_rx"));
}

void BottleneckPath::add_conservation_stages(
    check::ConservationAuditor& auditor) const {
  const std::size_t tbf = auditor.add_stage(
      "bottleneck/tbf", bottleneck_.counters(),
      [this] { return static_cast<std::int64_t>(bottleneck_.backlog_packets()); });
  const std::size_t netem = auditor.add_stage(
      "path/data_netem", data_netem_.counters(),
      [this] { return data_netem_.in_flight(); });
  auditor.add_stage("path/ack_netem", ack_netem_.counters(),
                    [this] { return ack_netem_.in_flight(); });
  // The TBF hands released packets straight to netem in the same event, so
  // their books must agree exactly at every instant.
  auditor.add_edge(tbf, netem);
}

}  // namespace quicsteps::framework
