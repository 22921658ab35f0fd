// Cross-layer path tracing: the TraceBus and its span vocabulary.
//
// The paper's thesis is that a pacer's intent is reshaped by every layer
// below it — qdisc, GSO, NIC offload — yet qlog goes blind at the socket.
// The TraceBus restores sight: each component on the path publishes a typed
// SpanEvent per packet (pacer release, socket write, qdisc enqueue/dequeue/
// drop, GSO segmentation, NIC serialization, wire-tap departure, receiver
// delivery), keyed by flow id + packet number, so a packet's full journey
// can be reconstructed and diffed against its intended txtime
// (obs/path_timeline.hpp) and exported as path-qlog JSONL or CSV
// (obs/exporters.hpp). The sending QUIC connection publishes its recovery
// state on the same bus (RecoverySample), so the transport's window sits
// in one trace beside the kernel path.
//
// Cost discipline: tracing is a runtime choice in every build. An
// instrumented component holds a TraceBus pointer that is null unless a
// run opted in (ExperimentConfig::trace), so an untraced run pays one
// predictable branch per QUICSTEPS_TRACE_SPAN() site. BENCH_micro's
// trace_overhead section measures both states.
//
// Determinism: spans are appended in event-loop execution order, which is a
// pure function of the seed; component ids are assigned in wiring order.
// Serial and parallel runs of one (config, seed) therefore produce
// byte-identical exports (tests/check_test.cpp pins this).
//
// Layer position: obs is "universal" in tools/analyze/layers.json (like
// check/) — includable from net and kernel without new DAG edges. The
// publish path is header-only so those layers need no link dependency.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "obs/flow_sampler.hpp"
#include "sim/time.hpp"

namespace quicsteps::obs {

/// Not a setting: spans are always compiled in. The constant exists only
/// because perfbench/src/traced_run.cpp still reads it.
inline constexpr bool kTraceEnabled = true;

/// Where on the path a span was recorded. Stage order is the nominal path
/// order of a data packet; a reconstructed timeline need not visit every
/// stage (the ideal server has no socket, ACKs skip the sender qdisc).
enum class TraceStage : std::uint8_t {
  kPacerRelease = 0,  // user space: the pacer let the packet go
  kSocketWrite,       // sendmsg/sendmmsg/GSO buffer entered the kernel
  kQdiscEnqueue,      // accepted by a queueing discipline
  kQdiscDequeue,      // released downstream by a queueing discipline
  kQdiscDrop,         // dropped by a queueing discipline
  kGsoSegment,        // split out of a GSO super-packet at the NIC
  kNicTx,             // NIC began serializing the packet at line rate
  kWire,              // passed the optical tap (departure timestamp)
  kDelivery,          // handed to the receiving stack after its wakeup
};

inline constexpr std::size_t kTraceStageCount = 9;

/// Stable identifier used in exports ("kernel:qdisc_enqueue", ...). The
/// kernel-path stages extend qlog's event vocabulary under a `kernel:`
/// namespace; user-space and wire stages use `transport:` / `wire:`.
const char* to_string(TraceStage stage);

/// One observation of one packet at one stage. 48-byte value type; spans
/// carry ids, never pointers into component state, so a TraceData outlives
/// the network that produced it.
struct SpanEvent {
  sim::Time at;        // simulated instant of the observation
  sim::Time intended;  // the pacer's intent (expected_send_time; 0 = none)
  std::uint64_t packet_id = 0;
  std::uint64_t packet_number = 0;
  std::int64_t size_bytes = 0;
  std::uint32_t flow = 0;
  TraceStage stage = TraceStage::kPacerRelease;
  std::uint16_t component = 0;  // index into TraceData::components
};

/// What a RecoverySample reports beside the connection's metrics.
enum class RecoveryEvent : std::uint8_t {
  kAck,   // an ACK newly acknowledged at least one packet
  kLoss,  // loss detection declared packets lost
};

/// The sending connection's recovery state after one ACK it processed or
/// one loss it declared: the quantities qlog's `recovery:metrics_updated`
/// carries, plus the event's own numbers. Published under the stack's
/// component id, so the component table needs no transport entry.
struct RecoverySample {
  sim::Time at;
  sim::Duration smoothed_rtt;
  net::DataRate pacing_rate;  // infinite before the first RTT sample
  std::int64_t cwnd = 0;
  std::int64_t bytes_in_flight = 0;
  /// kAck: the largest newly acked packet number. kLoss: packets lost.
  std::uint64_t packets = 0;
  /// kAck: bytes newly acked. kLoss: bytes lost.
  std::int64_t bytes = 0;
  std::uint32_t flow = 0;
  RecoveryEvent event = RecoveryEvent::kAck;
  std::uint16_t component = 0;
};

/// A completed trace: the component name table, every span and every
/// recovery sample, each in publication (= event-loop execution) order.
struct TraceData {
  std::vector<std::string> components;
  std::vector<SpanEvent> events;
  std::vector<RecoverySample> recovery;
};

/// The per-run trace sink. One bus per run_flows invocation; components
/// publish through a raw pointer that is null when tracing is off, so the
/// bus itself needs no enabled flag. Not thread-safe — a run owns its loop,
/// its network, and its bus (parallelism is across runs, never within one).
class TraceBus {
 public:
  /// Registers a component under `name` and returns its span id. Called
  /// during wiring, in deterministic construction order.
  std::uint16_t register_component(std::string name) {
    data_.components.push_back(std::move(name));
    return static_cast<std::uint16_t>(data_.components.size() - 1);
  }

  void publish(const SpanEvent& ev) { data_.events.push_back(ev); }
  void publish(const RecoverySample& sample) {
    data_.recovery.push_back(sample);
  }

  /// Appends a whole span train in one call — one capacity check and one
  /// contiguous copy instead of a push_back per span. The GSO expansion in
  /// publish_packet_span uses this so a segment train costs one flush.
  void publish_train(const SpanEvent* evs, std::size_t n) {
    data_.events.insert(data_.events.end(), evs, evs + n);
  }

  /// Pre-sizes the span store (run_flows hints with the expected packet
  /// count so a traced run never reallocates mid-flight).
  void reserve(std::size_t n) { data_.events.reserve(n); }

  /// Installs 1-in-N flow sampling. Sender-side components of unsampled
  /// flows get a null bus at wiring time (zero cost); shared-path
  /// components see every flow's packets, so publish_packet_span asks
  /// accepts() per packet — one splitmix hash, far cheaper than storing
  /// the span. Default: everything accepted.
  void set_sampler(const FlowSampler& sampler) { sampler_ = sampler; }

  /// True when `flow`'s spans belong on this bus.
  bool accepts(std::uint32_t flow) const { return sampler_.sampled(flow); }

  const std::vector<std::string>& component_names() const {
    return data_.components;
  }
  const std::vector<SpanEvent>& events() const { return data_.events; }

  /// Moves the finished trace out (the bus is empty afterwards).
  TraceData take() { return std::exchange(data_, TraceData{}); }

 private:
  TraceData data_;
  FlowSampler sampler_;  // default-constructed: sample everything
};

inline SpanEvent make_span(TraceStage stage, std::uint16_t component,
                           sim::Time at, const net::Packet& pkt) {
  SpanEvent ev;
  ev.at = at;
  ev.intended = pkt.expected_send_time;
  ev.packet_id = pkt.id;
  ev.packet_number = pkt.packet_number;
  ev.size_bytes = pkt.size_bytes;
  ev.flow = pkt.flow;
  ev.stage = stage;
  ev.component = component;
  return ev;
}

/// Publishes one span per wire packet of an accepted flow: a GSO
/// super-packet is expanded into its segments so every delivered packet's
/// chain stays complete even through stages that handle the buffer as one
/// unit (socket, qdiscs). The segment train is buffered on the stack and
/// flushed with one publish_train call.
inline void publish_accepted_span(TraceBus* bus, TraceStage stage,
                                  std::uint16_t component, sim::Time at,
                                  const net::Packet& pkt) {
  if (pkt.is_gso_buffer()) {
    constexpr std::size_t kTrainBuf = 64;
    SpanEvent train[kTrainBuf];
    std::size_t n = 0;
    for (const net::Packet& seg : *pkt.gso_segments) {
      train[n++] = make_span(stage, component, at, seg);
      if (n == kTrainBuf) {
        bus->publish_train(train, n);
        n = 0;
      }
    }
    if (n > 0) bus->publish_train(train, n);
    return;
  }
  bus->publish(make_span(stage, component, at, pkt));
}

inline void publish_packet_span(TraceBus* bus, TraceStage stage,
                                std::uint16_t component, sim::Time at,
                                const net::Packet& pkt) {
  // Null bus = tracing disabled. The QUICSTEPS_TRACE_SPAN macro checks
  // before calling, but direct callers reach here unguarded.
  if (bus == nullptr) return;
  // Sampled-out flow: drop the span before it costs memory. GSO segments
  // always share their carrier's flow, so one check covers the train.
  if (!bus->accepts(pkt.flow)) return;
  publish_accepted_span(bus, stage, component, at, pkt);
}

/// The ref form, for hops that hold a slab ref: the sampler reads the flow
/// off the slab's hot lane, so a shared-path hop never loads an unsampled
/// flow's packet. A sampled one is borrowed in place for the span.
inline void publish_packet_span(TraceBus* bus, TraceStage stage,
                                std::uint16_t component, sim::Time at,
                                net::PacketSlab& slab,
                                net::PacketSlab::Ref ref) {
  if (bus == nullptr) return;
  if (!bus->accepts(slab.flow(ref))) return;
  publish_accepted_span(bus, stage, component, at, slab.at(ref));
}

/// Mixin giving a component its trace hookup. The default state (null bus)
/// is the runtime "tracing off" check; set_trace() is called once during
/// wiring with the id register_component() handed out for this component.
class TraceSource {
 public:
  void set_trace(TraceBus* bus, std::uint16_t component) {
    trace_bus_ = bus;
    trace_component_ = component;
  }

 protected:
  TraceBus* trace_bus_ = nullptr;
  std::uint16_t trace_component_ = 0;
};

/// Publishes a span at stage `stage` for the packet named by the trailing
/// arguments: a Packet, or a slab and a ref. The bus pointer is read once
/// into a local and tested with a single branch predicted not-taken: an
/// untraced site is one load + one never-taken jump, with the publish call
/// laid out out-of-line off the fast path.
#define QUICSTEPS_TRACE_SPAN(bus, stage, component, at, ...)               \
  do {                                                                     \
    ::quicsteps::obs::TraceBus* const qs_span_bus_ = (bus);                \
    if (__builtin_expect(qs_span_bus_ != nullptr, 0)) {                    \
      ::quicsteps::obs::publish_packet_span(qs_span_bus_, (stage),         \
                                            (component), (at),             \
                                            __VA_ARGS__);                  \
    }                                                                      \
  } while (false)

}  // namespace quicsteps::obs
