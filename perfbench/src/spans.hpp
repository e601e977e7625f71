// In-memory span recording and the statistics the benchmark reports.
//
// A span is one timed call into a layer's public function: a name, start
// and end on the steady clock, the span that caused it, and the operation
// (one solve or one service stream) it belongs to. Spans are kept in
// memory and written out once, when the benchmark ends, so recording costs
// two clock reads and a vector push.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  /// Nanoseconds since the recorder was created.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the recorder, -1 for a root.
  int parent = -1;
  std::uint64_t op = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one and returns its index.
  int open(std::string name);
  /// Closes the span `open` returned (spans close innermost first).
  void close(int index);

  /// Spans recorded from now on belong to operation `op`.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// [{"name","start_ns","end_ns","parent","op"},...]
  [[nodiscard]] cdsf::obs::Json to_json() const;

 private:
  Clock::time_point epoch_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records a span for the lifetime of the scope; a null recorder records
/// nothing, which is how untraced runs skip tracing.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, std::string name)
      : recorder_(recorder), index_(recorder ? recorder->open(std::move(name)) : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (recorder_) recorder_->close(index_);
  }

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Self time of every span, in seconds: its duration minus the part of
/// its interval that its direct children cover (overlapping children are
/// counted once). Aligned with `spans`.
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile of `samples` that still has at least `beyond`
/// samples above it: the sorted sample at index n - beyond - 1.
struct TailPick {
  double value = 0.0;
  /// Share of the samples at or below `value`, in percent.
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Empty when there are fewer than beyond + 1 samples.
[[nodiscard]] std::optional<TailPick> tail_percentile(std::vector<double> samples,
                                                      std::size_t beyond);

}  // namespace perfbench
