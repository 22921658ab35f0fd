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
  for (const SpanEvent& ev : data.events) {
    write_event(out, data, ev);
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
