#include "host_trace.h"

#include <cstdio>

#include "src/util/json.h"

namespace perfbench {

HostTrace::Scope::Scope(HostTrace* trace, const char* name) : trace_(trace) {
  if (trace_ != nullptr && trace_->enabled_) {
    index_ = trace_->Begin(name);
  }
}

HostTrace::Scope::~Scope() {
  if (index_ >= 0) {
    trace_->End(index_);
  }
}

int64_t HostTrace::Begin(const char* name) {
  HostSpan span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.iteration = iteration_;
  span.start_ns = HostNowNs();
  spans_.push_back(std::move(span));
  const auto index = static_cast<int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void HostTrace::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_ns = HostNowNs();
  open_.pop_back();
}

std::vector<int64_t> HostTrace::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    // Children of one parent run one after another on one thread, so
    // subtracting their durations never double-counts.
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

namespace {

std::string LayerOf(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

std::map<std::string, SpanTotals> HostTrace::Totals(bool by_layer) const {
  std::map<std::string, SpanTotals> out;
  const std::vector<int64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& entry = out[by_layer ? LayerOf(spans_[i].name) : spans_[i].name];
    entry.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    entry.self_ns += self[i];
    ++entry.spans;
  }
  return out;
}

std::string HostTrace::ToPerfetto() const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char line[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const HostSpan& span = spans_[i];
    out += "{\"name\":\"" + lupine::JsonEscape(span.name) + "\",\"cat\":\"" +
           lupine::JsonEscape(LayerOf(span.name)) + "\"";
    std::snprintf(line, sizeof(line),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"parent\":%lld,\"iteration\":%lld}}%s\n",
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<long long>(span.parent), static_cast<long long>(span.iteration),
                  i + 1 < spans_.size() ? "," : "");
    out += line;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
