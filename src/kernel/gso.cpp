#include "kernel/gso.hpp"

namespace quicsteps::kernel {

const char* to_string(GsoMode mode) {
  switch (mode) {
    case GsoMode::kOff:
      return "gso-off";
    case GsoMode::kOn:
      return "gso-on";
    case GsoMode::kPaced:
      return "gso-paced";
  }
  return "?";
}

net::PacketSlab::Ref make_gso_buffer(net::PacketSlab& slab,
                                     const std::vector<net::Packet>& segments,
                                     std::uint64_t buffer_id,
                                     net::DataRate gso_pacing_rate) {
  // The carrier is the first segment's header sized to the whole buffer.
  net::Packet carrier = segments.front();
  carrier.size_bytes = 0;
  carrier.gso_buffer_id = buffer_id;
  carrier.gso_segment_count = static_cast<std::uint32_t>(segments.size());
  carrier.gso_pacing_rate = gso_pacing_rate;
  for (const net::Packet& seg : segments) carrier.size_bytes += seg.size_bytes;

  const net::PacketSlab::Ref ref = slab.put(carrier);
  net::PacketSlab::Ref tail = ref;
  std::uint32_t index = 0;
  for (net::Packet seg : segments) {
    seg.gso_buffer_id = buffer_id;
    seg.gso_segment_index = index++;
    seg.gso_segment_count = carrier.gso_segment_count;
    seg.gso_pacing_rate = gso_pacing_rate;
    const net::PacketSlab::Ref next = slab.put(seg);
    slab.link(tail, next);
    tail = next;
  }
  return ref;
}

}  // namespace quicsteps::kernel
