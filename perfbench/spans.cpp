#include "spans.h"

#include <fstream>
#include <stdexcept>

#include "util/table.h"

namespace nwlb::perfbench {

int SpanRecorder::open(std::string_view name, std::uint64_t group) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::string(name), open_.empty() ? -1 : open_.back(), group,
                    now_s(), -1.0});
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("SpanRecorder: span closed out of order");
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  open_.pop_back();
}

double SpanRecorder::Scope::end() {
  if (id_ < 0) return 0.0;
  if (!closed_) {
    closed_ = true;
    recorder_->close(id_);
  }
  const Span& span = recorder_->spans_[static_cast<std::size_t>(id_)];
  return span.end_s - span.start_s;
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::layer_times() const {
  // Children close before their parent and never overlap each other, so a
  // span's self time is its duration minus the sum of its children's.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0 && span.end_s >= 0.0)
      child_s[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_s < 0.0) continue;
    LayerTime& layer = out[span.name];
    const double duration = span.end_s - span.start_s;
    layer.total_s += duration;
    layer.self_s += duration - child_s[i];
    ++layer.count;
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_s < 0.0) continue;
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << util::json_escape(span.name)
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << util::format_double(span.start_s * 1e6, 3)
        << ",\"dur\":" << util::format_double((span.end_s - span.start_s) * 1e6, 3)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << span.parent
        << ",\"window\":" << span.group << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace nwlb::perfbench
