#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace flexos {
namespace hostbench {

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kJob:
      return "job";
    case Layer::kSetup:
      return "apps.setup";
    case Layer::kRun:
      return "apps.run";
    case Layer::kNicRx:
      return "net.nic_rx";
    case Layer::kPeerRx:
      return "harness.peer_rx";
    case Layer::kApp:
      return "harness.app";
    case Layer::kImageBuild:
      return "core.image_build";
    case Layer::kReplay:
      return "replay";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanRecorder::Begin(Layer layer) {
  if (!enabled_) {
    return -1;
  }
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{.layer = layer,
                        .parent = open_.empty() ? -1 : open_.back(),
                        .start_ns = NowNs(),
                        .end_ns = 0});
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a recorder that was
  // disabled and cleared while a span was open.
  while (!open_.empty() && open_.back() >= index) {
    open_.pop_back();
  }
}

void SpanRecorder::Clear() {
  spans_.clear();
  open_.clear();
}

LayerNs SpanRecorder::TotalNs() const {
  LayerNs total{};
  for (const Span& span : spans_) {
    total[static_cast<int>(span.layer)] += span.end_ns - span.start_ns;
  }
  return total;
}

LayerNs SpanRecorder::TotalUnderNs(Layer parent) const {
  LayerNs total{};
  for (const Span& span : spans_) {
    if (span.parent >= 0 &&
        spans_[static_cast<size_t>(span.parent)].layer == parent) {
      total[static_cast<int>(span.layer)] += span.end_ns - span.start_ns;
    }
  }
  return total;
}

LayerNs SpanRecorder::SelfNs() const {
  LayerNs self = TotalNs();
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      const Span& parent = spans_[static_cast<size_t>(span.parent)];
      self[static_cast<int>(parent.layer)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    size_t max_spans) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", file);
  for (size_t i = 0; i < std::min(max_spans, spans_.size()); ++i) {
    const Span& span = spans_[i];
    const std::string_view name = LayerName(span.layer);
    std::fprintf(file,
                 "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", static_cast<int>(name.size()),
                 name.data(),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 span.parent);
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace hostbench
}  // namespace flexos
