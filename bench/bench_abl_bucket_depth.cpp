// Ablation C (DESIGN.md §7): the leaky-bucket depth behind picoquic's
// bursts. The 16-17 packet trains of Figures 3/4 are the bucket depth; a
// shallow bucket turns the same stack into a near-perfect pacer.
#include "bench_common.hpp"

#include "stacks/event_loop_model.hpp"

using namespace quicsteps;
using namespace quicsteps::bench;

int main() {
  print_header("ablC", "leaky-bucket depth sweep (picoquic burst size)");

  const int depths_packets[] = {1, 2, 4, 8, 16, 32};

  std::printf("%-16s %16s %14s %18s\n", "depth [packets]", "pkts in <=5",
              "max train", "modal burst len");
  std::printf("%s\n", std::string(68, '-').c_str());
  for (int depth : depths_packets) {
    // Run the picoquic profile with an overridden bucket depth over a
    // hand-wired path (the framework runner keeps profiles stock).
    sim::EventLoop loop;
    sim::Rng rng(7);
    const framework::TopologyConfig tcfg;
    kernel::OsModel server_os(tcfg.server_os, rng.fork(1));
    framework::BottleneckPath path(loop, tcfg, rng, server_os);
    framework::SenderPath sender(loop, path.slab(), tcfg, server_os,
                                 path.wire_ingress());
    auto profile = stacks::picoquic_profile({});
    profile.pacer.bucket_depth_bytes = depth * 1500;
    quic::Connection::Config conn_cfg;
    conn_cfg.total_payload_bytes = framework::env_payload_bytes();
    stacks::StackServer server(loop, path.slab(), server_os, profile,
                               conn_cfg, sender.egress());
    quic::Client client(
        loop, path.slab(),
        {.ack = {}, .expected_payload_bytes = conn_cfg.total_payload_bytes},
        path.ack_ingress());
    path.register_flow(conn_cfg.flow, &client, &server);
    path.finish_flow_registration();
    server.start();
    loop.run_until(sim::Time::zero() + sim::Duration::seconds(600));

    const metrics::TrainReport trains =
        metrics::CaptureAnalyzer().analyze(path.tap().capture()).trains;
    std::size_t modal_len = 1;
    std::int64_t modal_packets = 0;
    for (const auto& [len, packets] : trains.packets_by_length) {
      if (len > 5 && packets > modal_packets) {
        modal_packets = packets;
        modal_len = len;
      }
    }
    std::printf("%-16d %15.1f%% %14zu %18zu\n", depth,
                100.0 * trains.fraction_in_trains_up_to(5),
                trains.max_train_length(), modal_len);
  }

  print_paper_note(
      "Section 4.1 — picoquic's 16-17 packet trains are its leaky-bucket "
      "depth draining after idle; with a 1-2 packet bucket (its BBR path) "
      "the same machinery paces almost perfectly.");
  return 0;
}
