// Reproduces Appendix Figure 7: the congestion-window time series of
// quiche's spurious-loss rollback behavior under FQ (perpetual rollbacks)
// against the SF-patched run.
#include "bench_common.hpp"

using namespace quicsteps;
using namespace quicsteps::bench;

int main() {
  print_header("fig7", "quiche spurious-loss cwnd rollbacks (Figure 7)");

  auto config = base_config("quiche+fq");
  config.stack = framework::StackKind::kQuiche;
  config.topology.server_qdisc = framework::QdiscKind::kFq;
  config.trace = true;  // the cwnd series is the run's recovery samples
  config.repetitions = 1;

  auto rollback_run = framework::Runner::run_once(config, config.seed);
  std::fputs(framework::render_cwnd_trace(
                 rollback_run, "quiche + FQ, rollback enabled (cwnd over time)")
                 .c_str(),
             stdout);
  std::printf("rollbacks performed: %lld, packets declared lost: %lld\n",
              static_cast<long long>(rollback_run.cc_rollbacks),
              static_cast<long long>(rollback_run.packets_declared_lost));

  config.stack = framework::StackKind::kQuicheSf;
  config.label = "quiche-sf+fq";
  auto sf_run = framework::Runner::run_once(config, config.seed);
  std::fputs(framework::render_cwnd_trace(
                 sf_run, "quiche + FQ, SF patch (cwnd over time)")
                 .c_str(),
             stdout);
  std::printf("rollbacks performed: %lld, packets declared lost: %lld\n",
              static_cast<long long>(sf_run.cc_rollbacks),
              static_cast<long long>(sf_run.packets_declared_lost));

  print_paper_note(
      "Figure 7 — the unpatched run shows the window repeatedly snapping "
      "back up after each reduction (checkpoint restore), producing extra "
      "loss; the SF-patched run shows the normal CUBIC sawtooth.");
  return 0;
}
