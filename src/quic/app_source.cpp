#include "quic/app_source.hpp"

#include <algorithm>

namespace quicsteps::quic {

const char* to_string(SourceKind kind) {
  switch (kind) {
    case SourceKind::kBulk:
      return "bulk";
    case SourceKind::kChunked:
      return "chunked";
    case SourceKind::kCbr:
      return "cbr";
  }
  return "?";
}

AppSource::AppSource(sim::EventLoop& loop, Connection& connection,
                     SourceConfig config, std::function<void()> on_new_data)
    : loop_(loop),
      connection_(connection),
      config_(config),
      on_new_data_(std::move(on_new_data)) {}

void AppSource::start() {
  const std::int64_t total = connection_.config().total_payload_bytes;
  if (config_.kind == SourceKind::kBulk) {
    connection_.set_available_bytes(total);
    released_ = total;
    if (on_new_data_) on_new_data_();
    return;
  }
  // Chunked and CBR start with nothing buffered; the first release is due
  // immediately (first segment / first frame at t=0).
  release_next();
}

void AppSource::release_next() {
  const std::int64_t total = connection_.config().total_payload_bytes;
  if (released_ >= total) return;

  std::int64_t grant = 0;
  sim::Duration next = sim::Duration::zero();
  if (config_.kind == SourceKind::kChunked) {
    grant = config_.chunk_bytes;
    next = config_.period;
  } else {  // kCbr
    grant = config_.rate.bytes_in(config_.frame_interval);
    next = config_.frame_interval;
  }
  released_ = std::min(total, released_ + grant);
  connection_.set_available_bytes(released_);
  if (on_new_data_) on_new_data_();
  if (released_ < total) {
    loop_.schedule_at<&AppSource::release_next>(loop_.now() + next,
                                                sim::EventClass::kApp, this);
  }
}

}  // namespace quicsteps::quic
