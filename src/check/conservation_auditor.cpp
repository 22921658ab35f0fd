#include "check/conservation_auditor.hpp"

#include <cstdio>
#include <utility>

#include "check/audit.hpp"

namespace quicsteps::check {

namespace {

std::string count_mismatch(const std::string& what, std::int64_t lhs,
                           std::int64_t rhs) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ": %lld != %lld",
                static_cast<long long>(lhs), static_cast<long long>(rhs));
  return what + buf;
}

}  // namespace

std::size_t ConservationAuditor::add_stage(std::string name,
                                           const net::Counters& counters,
                                           BacklogFn backlog_packets) {
  stages_.push_back(
      Stage{std::move(name), &counters, std::move(backlog_packets)});
  return stages_.size() - 1;
}

void ConservationAuditor::add_edge(std::size_t upstream,
                                   std::size_t downstream) {
  edges_.push_back(Edge{upstream, downstream});
}

std::vector<std::string> ConservationAuditor::violations() const {
  std::vector<std::string> out;

  for (const Stage& stage : stages_) {
    const net::Counters& c = *stage.counters;
    if (c.packets_in < 0 || c.packets_out < 0 || c.packets_dropped < 0 ||
        c.bytes_in < 0 || c.bytes_out < 0 || c.bytes_dropped < 0) {
      out.push_back(stage.name + ": negative counter");
    }
    if (c.packets_queued() < 0) {
      out.push_back(stage.name +
                    count_mismatch(": packets out+dropped exceed packets in",
                                   c.packets_out + c.packets_dropped,
                                   c.packets_in));
    }
    const std::int64_t bytes_queued = c.bytes_in - c.bytes_out - c.bytes_dropped;
    if (bytes_queued < 0) {
      out.push_back(stage.name +
                    count_mismatch(": bytes out+dropped exceed bytes in",
                                   c.bytes_out + c.bytes_dropped, c.bytes_in));
    }
    if (stage.backlog_packets) {
      const std::int64_t backlog = stage.backlog_packets();
      if (c.packets_queued() != backlog) {
        out.push_back(stage.name +
                      count_mismatch(": counter backlog disagrees with live "
                                     "queue depth",
                                     c.packets_queued(), backlog));
      }
    }
  }

  for (const Edge& edge : edges_) {
    const Stage& up = stages_[edge.upstream];
    const Stage& down = stages_[edge.downstream];
    if (up.counters->packets_out != down.counters->packets_in) {
      out.push_back(up.name + " -> " + down.name +
                    count_mismatch(": packets lost on a synchronous edge",
                                   up.counters->packets_out,
                                   down.counters->packets_in));
    }
    if (up.counters->bytes_out != down.counters->bytes_in) {
      out.push_back(up.name + " -> " + down.name +
                    count_mismatch(": bytes lost on a synchronous edge",
                                   up.counters->bytes_out,
                                   down.counters->bytes_in));
    }
  }

  return out;
}

std::vector<std::string> ConservationAuditor::audit() const {
  std::vector<std::string> found = violations();
  for (const std::string& violation : found) {
    audit_fail(__FILE__, __LINE__, "conservation", violation);
  }
  return found;
}

}  // namespace quicsteps::check
