#include "obs/exporters.hpp"

namespace quicsteps::obs {

namespace {

const std::string& component_name(const TraceData& data,
                                  std::uint16_t component) {
  static const std::string kUnknown = "?";
  if (component < data.components.size()) return data.components[component];
  return kUnknown;
}

void write_event(std::ostream& out, const TraceData& data,
                 const SpanEvent& ev) {
  out << "{\"time\":" << ev.at.to_micros_string() << ",\"name\":\""
      << to_string(ev.stage) << "\",\"data\":{\"component\":\""
      << component_name(data, ev.component) << "\",\"flow\":" << ev.flow
      << ",\"packet_number\":" << ev.packet_number
      << ",\"packet_id\":" << ev.packet_id << ",\"size\":" << ev.size_bytes;
  if (ev.intended.ns() != 0) {
    out << ",\"intended_us\":" << ev.intended.to_micros_string();
  }
  out << "}}\n";
}

/// One sample as qlog renders it: the ACK (`transport:packet_received`)
/// or loss (`recovery:packet_lost`), then `recovery:metrics_updated`.
void write_sample(std::ostream& out, const TraceData& data,
                  const RecoverySample& sample) {
  const std::string time = sample.at.to_micros_string();
  const std::string& component = component_name(data, sample.component);
  const auto prefix = [&](const char* name) {
    out << "{\"time\":" << time << ",\"name\":\"" << name
        << "\",\"data\":{\"component\":\"" << component
        << "\",\"flow\":" << sample.flow << ',';
  };
  if (sample.event == RecoveryEvent::kAck) {
    prefix("transport:packet_received");
    out << "\"header\":{\"packet_type\":\"1RTT\"},\"frames\":[{"
           "\"frame_type\":\"ack\",\"largest_acked\":"
        << sample.packets << ",\"acked_bytes\":" << sample.bytes << "}]}}\n";
  } else {
    prefix("recovery:packet_lost");
    out << "\"packets\":" << sample.packets << ",\"bytes\":" << sample.bytes
        << "}}\n";
  }
  prefix("recovery:metrics_updated");
  out << "\"congestion_window\":" << sample.cwnd
      << ",\"bytes_in_flight\":" << sample.bytes_in_flight
      << ",\"smoothed_rtt\":" << sample.smoothed_rtt.to_micros_string();
  if (!sample.pacing_rate.is_infinite() && !sample.pacing_rate.is_zero()) {
    out << ",\"pacing_rate\":" << sample.pacing_rate.bps();
  }
  out << "}}\n";
}

}  // namespace

void write_path_qlog(std::ostream& out, const TraceData& data,
                     const std::string& title) {
  out << "{\"qlog_format\":\"JSON-SEQ\",\"qlog_version\":\"0.4\","
         "\"title\":\""
      << title << "\",\"generator\":\"quicsteps\",\"trace\":{"
                  "\"time_unit\":\"us\",\"components\":[";
  for (std::size_t i = 0; i < data.components.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << data.components[i] << '"';
  }
  out << "]}}\n";
  // Merge by time; a sample goes after the spans of its instant.
  auto sample = data.recovery.begin();
  for (const SpanEvent& ev : data.events) {
    for (; sample != data.recovery.end() && sample->at < ev.at; ++sample) {
      write_sample(out, data, *sample);
    }
    write_event(out, data, ev);
  }
  for (; sample != data.recovery.end(); ++sample) {
    write_sample(out, data, *sample);
  }
}

void write_trace_csv(std::ostream& out, const TraceData& data) {
  out << "flow,packet_number,packet_id,stage,component,time_us,"
         "intended_us,size_bytes\n";
  for (const SpanEvent& ev : data.events) {
    out << ev.flow << ',' << ev.packet_number << ',' << ev.packet_id << ','
        << to_string(ev.stage) << ',' << component_name(data, ev.component)
        << ',' << ev.at.to_micros_string() << ','
        << (ev.intended.ns() != 0 ? ev.intended.to_micros_string() : "")
        << ',' << ev.size_bytes << '\n';
  }
}

}  // namespace quicsteps::obs
