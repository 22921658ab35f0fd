#include "obs/path_timeline.hpp"

#include <cstddef>
#include <utility>

namespace quicsteps::obs {

TraceSummary summarize_trace(const TraceData& data) {
  // Pass 1: hash spans into (flow, id) groups, recording each group's
  // pacer intent (first non-zero in publication order) and stage mask.
  // Pass 2: fold every span of every intent-carrying group into the
  // per-stage error histograms. Packet ids are unique per sender packet;
  // retransmissions reuse a packet number under a fresh id, so id is the
  // grouping key.
  const std::vector<SpanEvent>& evs = data.events;
  std::size_t table_size = 16;
  while (table_size < 2 * evs.size()) table_size *= 2;
  std::vector<std::uint32_t> table(table_size, 0);  // 0 = empty, else g + 1
  struct Group {
    std::uint64_t id;
    sim::Time intended;
    std::uint32_t flow;
    std::uint16_t stage_mask;
  };
  std::vector<Group> groups;
  std::vector<std::uint32_t> group_of(evs.size());
  for (std::size_t k = 0; k < evs.size(); ++k) {
    const SpanEvent& ev = evs[k];
    std::size_t h = (ev.packet_id * 0x9E3779B97F4A7C15ull ^
                     ev.flow * 0xC2B2AE3D27D4EB4Full) &
                    (table_size - 1);
    std::uint32_t g;
    for (;;) {
      if (table[h] == 0) {
        g = static_cast<std::uint32_t>(groups.size());
        groups.push_back({ev.packet_id, sim::Time::zero(), ev.flow, 0});
        table[h] = g + 1;
        break;
      }
      g = table[h] - 1;
      if (groups[g].id == ev.packet_id && groups[g].flow == ev.flow) break;
      h = (h + 1) & (table_size - 1);
    }
    if (groups[g].intended.ns() == 0) groups[g].intended = ev.intended;
    groups[g].stage_mask |=
        static_cast<std::uint16_t>(1u << static_cast<unsigned>(ev.stage));
    group_of[k] = g;
  }

  TraceSummary summary;
  summary.packets = static_cast<std::int64_t>(groups.size());
  constexpr std::uint16_t kCompleteMask =
      (1u << static_cast<unsigned>(TraceStage::kPacerRelease)) |
      (1u << static_cast<unsigned>(TraceStage::kDelivery));
  for (const Group& g : groups) {
    if ((g.stage_mask & kCompleteMask) == kCompleteMask) {
      ++summary.complete_chains;
    }
  }

  std::vector<StageErrorReport> reports(kTraceStageCount);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    reports[i].stage = static_cast<TraceStage>(i);
  }
  for (std::size_t k = 0; k < evs.size(); ++k) {
    const sim::Time intended = groups[group_of[k]].intended;
    if (intended.ns() == 0) continue;
    const SpanEvent& ev = evs[k];
    reports[static_cast<std::size_t>(ev.stage)].error_us.observe(
        (ev.at - intended).us());
  }
  for (StageErrorReport& report : reports) {
    if (report.error_us.count() > 0) {
      summary.errors.push_back(std::move(report));
    }
  }
  return summary;
}

}  // namespace quicsteps::obs
