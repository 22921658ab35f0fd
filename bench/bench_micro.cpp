// Micro-benchmarks (google-benchmark) for the hot simulation paths: event
// scheduling, qdisc enqueue/dequeue, pacer decisions, and the capture
// analyzers. These bound how large an experiment the framework can run.
#include <benchmark/benchmark.h>

#include "framework/parallel.hpp"
#include "framework/runner.hpp"
#include "kernel/os_model.hpp"
#include "kernel/qdisc_fq.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "metrics/capture_analysis.hpp"
#include "net/packet_slab.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/quantile_sketch.hpp"
#include "obs/time_series.hpp"
#include "obs/trace.hpp"
#include "pacing/interval_pacer.hpp"
#include "pacing/leaky_bucket_pacer.hpp"
#include "sim/event_loop.hpp"

namespace {

using namespace quicsteps;
using namespace quicsteps::sim::literals;

void BM_EventLoopScheduleRun(benchmark::State& state) {
  // The timer path: every event takes a slab slot (function pointer,
  // context, payload) and a handle. CI's normalized comparison is
  // anchored on this benchmark.
  for (auto _ : state) {
    sim::EventLoop loop;
    long sum = 0;
    for (int i = 0; i < state.range(0); ++i) {
      loop.schedule_after(
          sim::Duration::micros(i % 997), sim::EventClass::kTimer,
          [](void* ctx, std::uint32_t) { ++*static_cast<long*>(ctx); }, &sum);
    }
    loop.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(10000);

net::Packet hop_packet(std::uint64_t id) {
  net::Packet pkt;
  pkt.id = id;
  pkt.flow = 1;
  pkt.size_bytes = 1514;
  pkt.packet_number = id;
  pkt.stream_offset = static_cast<std::int64_t>(id) * 1472;
  pkt.stream_length = 1472;
  return pkt;
}

struct HopConsumer {
  long long bytes = 0;
  net::PacketSlab* slab = nullptr;
  static void drain(void* self, std::uint32_t ref) {
    auto* c = static_cast<HopConsumer*>(self);
    c->bytes += c->slab->take(ref).size_bytes;
  }
};

void BM_LoopHopPacketBatched(benchmark::State& state) {
  // The datapath's idiom for one packet hop: the Packet parks in the slab,
  // a posted 24-byte drain record rides the wheel, and the wave drains as
  // a train without leaving run()'s cursor. One wave = one pacer burst
  // worth of 1514-byte packets at 10 Gbit/s spacing.
  const int packets = static_cast<int>(state.range(0));
  constexpr std::int64_t kSpacingNs = 1211;  // 1514 bytes at 10 Gbit/s
  sim::EventLoop loop;
  net::PacketSlab slab;
  HopConsumer consumer;
  consumer.slab = &slab;
  const sim::DrainId ch = loop.register_drain(sim::EventClass::kTransmit,
                                              &HopConsumer::drain, &consumer);
  for (auto _ : state) {
    const std::int64_t base = loop.now().ns();
    for (int i = 0; i < packets; ++i) {
      loop.post_drain_at(sim::Time::from_ns(base + i * kSpacingNs), ch,
                         slab.put(hop_packet(static_cast<std::uint64_t>(i))));
    }
    loop.run();
    benchmark::DoNotOptimize(consumer.bytes);
  }
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_LoopHopPacketBatched)->Arg(10000);

void BM_EventLoopCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    std::vector<sim::EventHandle> handles;
    handles.reserve(static_cast<std::size_t>(state.range(0)));
    for (int i = 0; i < state.range(0); ++i) {
      handles.push_back(loop.schedule_after(
          1_ms, sim::EventClass::kTimer, [](void*, std::uint32_t) {}, nullptr));
    }
    for (auto& handle : handles) handle.cancel();
    loop.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventLoopCancel)->Arg(10000);

net::Packet bench_packet(std::uint64_t id) {
  net::Packet pkt;
  pkt.id = id;
  pkt.size_bytes = 1500;
  return pkt;
}

void BM_FqEnqueueDequeue(benchmark::State& state) {
  // range(0) timestamped packets of one flow, 300 us apart: each one after
  // the first is held until a watchdog releases it (one heap push and pop).
  const int packets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventLoop loop;
    kernel::OsModel os({}, sim::Rng(1));
    net::PacketSlab slab;
    net::CollectorSink sink;
    kernel::FqQdisc fq(loop, slab, {.limit_packets = packets + 1}, os,
                       &sink);
    for (int i = 0; i < packets; ++i) {
      net::Packet pkt = bench_packet(static_cast<std::uint64_t>(i));
      pkt.has_txtime = true;
      pkt.txtime = sim::Time::zero() + sim::Duration::micros(i * 300);
      fq.deliver(std::move(pkt));
    }
    loop.run();
    benchmark::DoNotOptimize(sink.packets().size());
  }
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_FqEnqueueDequeue)->Arg(1000)->Arg(10000);

void BM_FlowTableRegister(benchmark::State& state) {
  // range(0) routes registered the way framework::Network registers them:
  // dense ids 10, 11, ... in ascending order. (net::FlowIndex rejects a
  // scrambled order of that many ids: mid-build their span far exceeds
  // the flows registered so far.)
  const int routes = static_cast<int>(state.range(0));
  net::CollectorSink sink;
  net::PacketSlab slab;
  for (auto _ : state) {
    net::FlowTableSink table(slab);
    table.reserve(static_cast<std::size_t>(routes));
    for (int i = 0; i < routes; ++i) {
      table.add_route(static_cast<std::uint32_t>(10 + i), &sink);
    }
    table.finish_routes();
    benchmark::DoNotOptimize(table.route_count());
  }
  state.SetItemsProcessed(state.iterations() * routes);
}
BENCHMARK(BM_FlowTableRegister)->Arg(10000);

void BM_TbfShaping(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    net::PacketSlab slab;
    net::CollectorSink sink;
    kernel::TbfQdisc tbf(loop, slab,
                         {.rate = net::DataRate::megabits_per_second(40),
                          .burst_bytes = 3000,
                          .limit_bytes = 1 << 24},
                         &sink);
    for (int i = 0; i < state.range(0); ++i) {
      tbf.deliver(bench_packet(static_cast<std::uint64_t>(i)));
    }
    loop.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TbfShaping)->Arg(1000);

void BM_PacketSlabPutTake(benchmark::State& state) {
  // Steady-state slab traffic: a window of packets in flight, recycled
  // through the free list. After warm-up no iteration allocates.
  net::PacketSlab slab;
  constexpr int kWindow = 64;
  std::vector<net::PacketSlab::Ref> window;
  window.reserve(kWindow);
  std::uint64_t id = 0;
  for (auto _ : state) {
    window.push_back(slab.put(bench_packet(id++)));
    if (window.size() == kWindow) {
      for (const auto ref : window) {
        benchmark::DoNotOptimize(slab.take(ref).size_bytes);
      }
      window.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketSlabPutTake);

void BM_IntervalPacerDecision(benchmark::State& state) {
  pacing::IntervalPacer pacer;
  const auto rate = net::DataRate::megabits_per_second(40);
  sim::Time now;
  for (auto _ : state) {
    const sim::Time release = pacer.earliest_send_time(now, 1500, rate);
    pacer.on_packet_sent(release, 1500, rate);
    now = release;
    benchmark::DoNotOptimize(release);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntervalPacerDecision);

void BM_LeakyBucketDecision(benchmark::State& state) {
  pacing::LeakyBucketPacer pacer(16 * 1500);
  const auto rate = net::DataRate::megabits_per_second(40);
  sim::Time now;
  for (auto _ : state) {
    const sim::Time release = pacer.earliest_send_time(now, 1500, rate);
    pacer.on_packet_sent(release, 1500, rate);
    now = release;
    benchmark::DoNotOptimize(release);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeakyBucketDecision);

std::vector<net::Packet> synthetic_capture(int n) {
  std::vector<net::Packet> capture;
  capture.reserve(static_cast<std::size_t>(n));
  sim::Time t;
  for (int i = 0; i < n; ++i) {
    net::Packet pkt = bench_packet(static_cast<std::uint64_t>(i));
    pkt.flow = 1;
    pkt.wire_time = t;
    t += (i % 7 == 0) ? 1_ms : 12_us;
    capture.push_back(std::move(pkt));
  }
  return capture;
}

void BM_CaptureAnalysisSinglePass(benchmark::State& state) {
  // CaptureAnalyzer: all four per-run reports from one walk.
  auto capture = synthetic_capture(static_cast<int>(state.range(0)));
  metrics::CaptureAnalyzer analyzer;
  for (auto _ : state) {
    auto analysis = analyzer.analyze(capture);
    benchmark::DoNotOptimize(analysis.gaps.back_to_back_fraction);
    benchmark::DoNotOptimize(analysis.trains.total_packets);
    benchmark::DoNotOptimize(analysis.precision.precision_ms);
    benchmark::DoNotOptimize(analysis.wire_data_packets);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CaptureAnalysisSinglePass)->Arg(100000);

std::vector<net::Packet> synthetic_multi_flow_capture(int n, int flows) {
  // Per-flow trains of 16 packets, like real pacing at a shared bottleneck:
  // the demux's last-hit cache sees long runs, not per-packet flow churn.
  std::vector<net::Packet> capture;
  capture.reserve(static_cast<std::size_t>(n));
  sim::Time t;
  for (int i = 0; i < n; ++i) {
    net::Packet pkt = bench_packet(static_cast<std::uint64_t>(i));
    pkt.flow = static_cast<std::uint32_t>(10 + (i / 16) % flows);
    pkt.wire_time = t;
    t += (i % 7 == 0) ? 1_ms : 12_us;
    capture.push_back(std::move(pkt));
  }
  return capture;
}

void BM_FlowDemuxPerFlowRescan(benchmark::State& state) {
  // The pre-demux extraction, generalized to N flows: one full capture
  // walk per flow, filtering on the flow id. O(N * packets).
  const int flows = static_cast<int>(state.range(1));
  auto capture =
      synthetic_multi_flow_capture(static_cast<int>(state.range(0)), flows);
  for (auto _ : state) {
    for (int f = 0; f < flows; ++f) {
      metrics::CaptureAnalyzer::Config config;
      config.flow = static_cast<std::uint32_t>(10 + f);
      metrics::CaptureAnalyzer analyzer(config);
      for (const auto& pkt : capture) {
        if (pkt.flow == config.flow) analyzer.add(pkt);
      }
      benchmark::DoNotOptimize(analyzer.finish().wire_data_packets);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowDemuxPerFlowRescan)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8});

void BM_FlowDemuxSinglePass(benchmark::State& state) {
  // The fabric's FlowCaptureDemux: one walk routes every packet to its
  // flow's analyzer. O(packets), independent of the flow count.
  const int flows = static_cast<int>(state.range(1));
  auto capture =
      synthetic_multi_flow_capture(static_cast<int>(state.range(0)), flows);
  for (auto _ : state) {
    metrics::FlowCaptureDemux demux;
    for (int f = 0; f < flows; ++f) {
      demux.add_flow(static_cast<std::uint32_t>(10 + f));
    }
    demux.analyze(capture);
    for (std::size_t slot = 0; slot < demux.flow_count(); ++slot) {
      benchmark::DoNotOptimize(demux.finish(slot).wire_data_packets);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowDemuxSinglePass)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8})
    // Fabric scale: the rescan baseline is O(N * packets) and unrunnable
    // here; the single-pass demux stays O(packets) with a burst cache in
    // front of a log2(N) binary search.
    ->Args({100000, 100})
    ->Args({100000, 1000})
    ->Args({100000, 10000});

void BM_TraceSpanSite(benchmark::State& state) {
  // One instrumented per-packet site with no bus installed: the runtime
  // "tracing off" state, a pointer null check. BENCH_micro.json's
  // trace_overhead section records it next to the enabled state below.
  obs::TraceBus* bus = nullptr;
  const net::Packet pkt = bench_packet(1);
  const sim::Time now;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus);  // the branch must stay in the loop
    QUICSTEPS_TRACE_SPAN(bus, obs::TraceStage::kNicTx, 0, now, pkt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanSite);

void BM_TraceSpanPublish(benchmark::State& state) {
  // The enabled state: a run opted in, every site appends a 48-byte span.
  // The bus is drained outside the measured region so memory stays flat.
  obs::TraceBus bus;
  [[maybe_unused]] const std::uint16_t id = bus.register_component("bench");
  const net::Packet pkt = bench_packet(1);
  const sim::Time now;
  obs::TraceBus* installed = &bus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(installed);
    QUICSTEPS_TRACE_SPAN(installed, obs::TraceStage::kNicTx, id, now, pkt);
    if (bus.events().size() >= (1u << 16)) {
      state.PauseTiming();
      obs::TraceData drained = bus.take();
      benchmark::DoNotOptimize(drained.events.size());
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanPublish);

void BM_MetricsCounterByName(benchmark::State& state) {
  // The old per-packet call-site shape: one map lookup (string hash +
  // node walk) per touch. Baseline for BM_MetricsCounterHandle.
  obs::MetricsRegistry reg;
  reg.add_counter("fleet/wire_packets", 0);
  for (auto _ : state) {
    reg.add_counter("fleet/wire_packets", 1);
  }
  benchmark::DoNotOptimize(reg.counters().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterByName);

void BM_MetricsCounterHandle(benchmark::State& state) {
  // The pre-resolved handle the telemetry tap uses: resolve once at
  // wiring time, then a bare int64 add per packet.
  obs::MetricsRegistry reg;
  const obs::CounterHandle handle = reg.counter("fleet/wire_packets");
  for (auto _ : state) {
    handle.add(1);
    // Forces the store to land each iteration; without it the compiler
    // folds the whole loop into one add of `iterations`.
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(reg.counters().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterHandle);

void BM_QuantileSketchObserve(benchmark::State& state) {
  // Per-sample sketch cost over a mixed-magnitude stream (exact region
  // plus several octaves, both signs) — the per-span price of the fleet
  // pacing-error tail.
  obs::QuantileSketch sketch;
  std::int64_t v = 1;
  for (auto _ : state) {
    v = v * 6364136223846793005ll + 1442695040888963407ll;
    sketch.observe((v >> 33) % 1'000'000 - 200'000);
  }
  benchmark::DoNotOptimize(sketch.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantileSketchObserve);

void BM_TimeSeriesOnPacket(benchmark::State& state) {
  // The telemetry tap's per-packet hot path: ordinal divide, predicted
  // not-taken roll check, two adds. Window rolls amortize to ~0 (one per
  // thousands of packets at real rates); the ring never allocates.
  obs::TimeSeries series(1_ms, 4096, nullptr, nullptr);
  sim::Time now;
  const sim::Duration gap = sim::Duration::nanos(12'000);  // 1200 B at 800 Mbit/s
  for (auto _ : state) {
    now += gap;
    series.on_wire_packet(now, 1200);
  }
  benchmark::DoNotOptimize(series.end_ordinal());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesOnPacket);

void BM_RunWithTrace(benchmark::State& state) {
  // Whole-run cost of path tracing through a real transfer: arg 0 runs
  // untraced (spans compiled in, bus never installed), arg 1 records the
  // full span stream plus the per-flow TraceData demux.
  framework::ExperimentConfig config;
  config.label = "bench";
  config.stack = framework::StackKind::kQuicheSf;
  config.payload_bytes = 1ll * 1024 * 1024;
  config.repetitions = 1;
  config.seed = 1;
  config.trace = state.range(0) != 0;
  for (auto _ : state) {
    auto run = framework::Runner::run_once(config, config.seed);
    benchmark::DoNotOptimize(run.packets_sent);
    benchmark::DoNotOptimize(run.trace);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunWithTrace)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

framework::ExperimentConfig highbw_config() {
  // The 10 Gbit/s point of the bench_ext_highbw family: a short-RTT
  // multi-Gbit path that stresses the per-packet event cost rather than
  // the paper's 40 Mbit/s bottleneck. items_per_second is simulated
  // packets per wall-clock second on one core.
  framework::ExperimentConfig config;
  config.label = "highbw";
  config.stack = framework::StackKind::kQuicheSf;
  config.payload_bytes = 8ll * 1024 * 1024;
  config.repetitions = 1;
  config.seed = 1;
  config.topology.bottleneck_rate = net::DataRate::gigabits_per_second(10);
  config.topology.server_nic_rate = net::DataRate::gigabits_per_second(40);
  config.topology.path_delay_one_way = sim::Duration::millis(1);
  config.topology.bottleneck_buffer_bytes =
      net::DataRate::gigabits_per_second(10).bytes_in(sim::Duration::millis(2));
  config.topology.tbf_burst_bytes = 16 * 1514;
  return config;
}

void BM_HighBwRun(benchmark::State& state) {
  const auto config = highbw_config();
  std::int64_t packets = 0;
  for (auto _ : state) {
    auto run = framework::Runner::run_once(config, config.seed);
    packets = run.packets_sent;
    benchmark::DoNotOptimize(run.completed);
  }
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_HighBwRun)->Unit(benchmark::kMillisecond);

std::vector<framework::ExperimentConfig> bench_grid() {
  std::vector<framework::ExperimentConfig> grid;
  for (auto stack :
       {framework::StackKind::kQuicheSf, framework::StackKind::kPicoquic}) {
    framework::ExperimentConfig config;
    config.label = framework::to_string(stack);
    config.stack = stack;
    config.payload_bytes = 1ll * 1024 * 1024;
    config.repetitions = 2;
    config.seed = 1;
    grid.push_back(config);
  }
  return grid;
}

void BM_ExperimentGridSerial(benchmark::State& state) {
  // Reference: run the same small grid one (config, seed) at a time.
  const auto grid = bench_grid();
  for (auto _ : state) {
    std::int64_t packets = 0;
    for (const auto& config : grid) {
      for (int rep = 0; rep < config.repetitions; ++rep) {
        auto run = framework::Runner::run_once(
            config, config.seed + static_cast<std::uint64_t>(rep));
        packets += run.packets_sent;
      }
    }
    benchmark::DoNotOptimize(packets);
  }
  state.SetItemsProcessed(state.iterations() * 4);  // 2 configs x 2 reps
}
BENCHMARK(BM_ExperimentGridSerial)->Unit(benchmark::kMillisecond);

void BM_ExperimentGridParallel(benchmark::State& state) {
  // Same grid through the worker pool. On a multi-core host the wall-clock
  // win approaches the job count; results are bit-identical either way.
  const auto grid = bench_grid();
  framework::ParallelRunner pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::int64_t packets = 0;
    for (const auto& runs : pool.run_grid(grid)) {
      for (const auto& run : runs) packets += run.packets_sent;
    }
    benchmark::DoNotOptimize(packets);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ExperimentGridParallel)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
