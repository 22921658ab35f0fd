// Generic Segmentation Offload model.
//
// A GSO send hands the kernel one buffer that is split into wire packets at
// the driver/NIC boundary. Three modes reproduce the paper's Section 4.3:
//   kOff    — one sendmsg per packet (baseline; qdisc can pace each packet);
//   kOn     — stock GSO: the buffer crosses the qdisc as ONE unit, so all
//             segments hit the wire back-to-back (pacing is defeated);
//   kPaced  — the paper's extended kernel patch: user space attaches a
//             pacing rate to the buffer and the kernel releases segment i
//             at t0 + i * segment_bytes / rate, keeping single-syscall
//             efficiency AND per-packet spacing.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_slab.hpp"

namespace quicsteps::kernel {

enum class GsoMode : std::uint8_t { kOff, kOn, kPaced };

const char* to_string(GsoMode mode);

/// Puts the super-packet the kernel sees for one GSO sendmsg into `slab`
/// and returns its ref: a carrier whose size is the segments' sum, with a
/// copy of each segment (stamped with its buffer id, index and rate)
/// linked behind it in order. `segments` must be non-empty. The carrier
/// inherits the first segment's header, txtime included (a real GSO
/// buffer carries one SCM_TXTIME for the whole call). A GSO buffer crosses
/// the qdisc layer as its carrier — which is why GSO defeats qdisc pacing
/// — and the NIC transmits the linked segments.
net::PacketSlab::Ref make_gso_buffer(net::PacketSlab& slab,
                                     const std::vector<net::Packet>& segments,
                                     std::uint64_t buffer_id,
                                     net::DataRate gso_pacing_rate);

}  // namespace quicsteps::kernel
