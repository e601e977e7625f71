#include "spans.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder::close: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

cdsf::obs::Json SpanRecorder::to_json() const {
  cdsf::obs::Json list = cdsf::obs::Json::array();
  for (const Span& span : spans_) {
    cdsf::obs::Json item = cdsf::obs::Json::object();
    item.set("name", span.name);
    item.set("start_ns", span.start_ns);
    item.set("end_ns", span.end_ns);
    item.set("parent", span.parent);
    item.set("op", span.op);
    list.push_back(std::move(item));
  }
  return list;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t start = spans[i].start_ns;
    const std::int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t reach = start;
    for (const auto& [kid_start, kid_end] : kids) {
      const std::int64_t from = std::max(kid_start, reach);
      const std::int64_t to = std::min(kid_end, end);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(kid_end, end));
    }
    self[i] = static_cast<double>(end - start - covered) * 1e-9;
  }
  return self;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::optional<TailPick> tail_percentile(std::vector<double> samples, std::size_t beyond) {
  if (samples.size() < beyond + 1) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t index = samples.size() - beyond - 1;
  TailPick pick;
  pick.value = samples[index];
  pick.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(samples.size());
  pick.samples = samples.size();
  pick.beyond = beyond;
  return pick;
}

}  // namespace perfbench
