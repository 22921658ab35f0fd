#include "framework/artifacts.hpp"

namespace quicsteps::framework {

void write_capture_csv(std::ostream& out,
                       const std::vector<net::Packet>& capture) {
  out << "id,flow,kind,packet_number,size_bytes,wire_time_ns,"
         "expected_send_ns,kernel_entry_ns,has_txtime,txtime_ns,"
         "gso_buffer,gso_index\n";
  for (const auto& pkt : capture) {
    out << pkt.id << ',' << pkt.flow << ',' << net::to_string(pkt.kind)
        << ',' << pkt.packet_number << ',' << pkt.size_bytes << ','
        << pkt.wire_time.ns() << ',' << pkt.expected_send_time.ns() << ','
        << pkt.kernel_entry_time.ns() << ',' << (pkt.has_txtime ? 1 : 0)
        << ',' << (pkt.has_txtime ? pkt.txtime.ns() : 0) << ','
        << pkt.gso_buffer_id << ',' << pkt.gso_segment_index << '\n';
  }
}

void write_cwnd_trace_csv(std::ostream& out, const RunResult& run) {
  out << "time_ns,cwnd_bytes,bytes_in_flight\n";
  if (run.trace == nullptr) return;
  for (const obs::RecoverySample& sample : run.trace->recovery) {
    out << sample.at.ns() << ',' << sample.cwnd << ','
        << sample.bytes_in_flight << '\n';
  }
}

void write_gaps_csv(std::ostream& out, const RunResult& run) {
  out << "gap_ms\n";
  for (double gap : run.gaps.gaps_ms) {
    out << gap << '\n';
  }
}

void write_summary_csv(std::ostream& out, const std::string& label,
                       const RunResult& run, bool header) {
  if (header) {
    out << "label,completed,goodput_mbps,dropped_packets,declared_lost,"
           "retransmissions,packets_sent,wire_data_packets,"
           "back_to_back_fraction,trains_up_to_5_fraction,precision_ms,"
           "send_syscalls,cpu_time_ms,cc_rollbacks\n";
  }
  out << label << ',' << (run.completed ? 1 : 0) << ','
      << run.goodput.goodput.mbps() << ',' << run.dropped_packets << ','
      << run.packets_declared_lost << ',' << run.retransmissions << ','
      << run.packets_sent << ',' << run.wire_data_packets << ','
      << run.gaps.back_to_back_fraction << ','
      << run.trains.fraction_in_trains_up_to(5) << ','
      << run.precision.precision_ms << ',' << run.send_syscalls << ','
      << run.cpu_time_ms << ',' << run.cc_rollbacks << '\n';
}

void write_path_qlog(std::ostream& out, const RunResult& run,
                     const std::string& title) {
  if (run.trace == nullptr) {
    const obs::TraceData empty;
    obs::write_path_qlog(out, empty, title);
    return;
  }
  obs::write_path_qlog(out, *run.trace, title);
}

void write_path_trace_csv(std::ostream& out, const RunResult& run) {
  if (run.trace == nullptr) {
    const obs::TraceData empty;
    obs::write_trace_csv(out, empty);
    return;
  }
  obs::write_trace_csv(out, *run.trace);
}

}  // namespace quicsteps::framework
