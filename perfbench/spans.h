// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed only by the benchmark's own code, around its
// calls into the program's public functions.  Each span has a name, a
// start, an end, the span that was open when it started (its parent), and
// the id of the window or control interval it belongs to.  Nothing is
// written until the run ends: write_chrome_trace() emits Chrome
// trace-event JSON, which Perfetto and chrome://tracing open as is.
//
// A disabled recorder (the untraced run) records nothing; Scope then costs
// one branch at open and one at close.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nwlb::perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;          // Index into spans(); -1 = a root span.
    std::uint64_t group = 0;  // Window or control-interval id.
    double start_s = 0.0;     // Seconds since the recorder was created.
    double end_s = 0.0;
  };

  /// Total and self time (duration minus the time covered by child spans)
  /// of every span sharing one name.
  struct LayerTime {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };

  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open one; returns its id.
  int open(std::string_view name, std::uint64_t group);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);

  /// Closes the span it opened when it goes out of scope; seconds() is the
  /// span's duration once closed (0 when the recorder is disabled).
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name, std::uint64_t group)
        : recorder_(&recorder),
          id_(recorder.enabled_ ? recorder.open(name, group) : -1) {}
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    /// Closes the span early and returns its duration.
    double end();

   private:
    SpanRecorder* recorder_;
    int id_;
    bool closed_ = false;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals over every closed span.
  std::map<std::string, LayerTime> layer_times() const;

  /// Writes every span as a Chrome trace-event "X" (complete) event.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // Stack of open span ids.
};

}  // namespace nwlb::perfbench
