#include "net/packet.hpp"

#include <cstdio>

#include "net/packet_slab.hpp"

namespace quicsteps::net {

void CollectorSink::deliver_ref(PacketSlab& slab, std::uint32_t ref) {
  packets_.push_back(slab.take(ref));
}

const char* to_string(PacketKind kind) {
  switch (kind) {
    case PacketKind::kQuicData:
      return "quic-data";
    case PacketKind::kQuicAck:
      return "quic-ack";
    case PacketKind::kQuicControl:
      return "quic-control";
    case PacketKind::kTcpData:
      return "tcp-data";
    case PacketKind::kTcpAck:
      return "tcp-ack";
  }
  return "?";
}

std::string Packet::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "pkt{id=%llu flow=%u %s pn=%llu %lldB%s}",
                static_cast<unsigned long long>(id), flow, net::to_string(kind),
                static_cast<unsigned long long>(packet_number),
                static_cast<long long>(size_bytes),
                has_txtime ? " txtime" : "");
  return buf;
}

}  // namespace quicsteps::net
