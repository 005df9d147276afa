#include "src/telemetry/export.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <tuple>

namespace lupine::telemetry {
namespace {

// Fixed six decimals (%.6f): a stable, diff-friendly rendering for metric
// summaries. Not round-trippable — digits past the sixth decimal are lost.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

// printf's %.<precision>f, appended without a temporary. to_chars with a
// precision is specified to format exactly as printf does.
void AppendFixed(std::string* out, double v, int precision) {
  char buf[400];  // Room for the widest double in fixed notation.
  out->append(buf,
              std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, precision).ptr);
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string LabelsJson(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += '"' + JsonEscape(labels[i].first) + "\": \"" + JsonEscape(labels[i].second) + '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string ToJson(const MetricRegistry::Snapshot& snapshot, const std::string& indent) {
  std::string out = "{\n";
  const std::string i1 = indent + "  ";
  const std::string i2 = indent + "    ";

  out += i1 + "\"counters\": [";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    out += (i == 0 ? "\n" : ",\n") + i2 + "{\"name\": \"" + JsonEscape(c.name) +
           "\", \"labels\": " + LabelsJson(c.labels) +
           ", \"value\": " + std::to_string(c.value) + "}";
  }
  out += snapshot.counters.empty() ? "],\n" : "\n" + i1 + "],\n";

  out += i1 + "\"gauges\": [";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    out += (i == 0 ? "\n" : ",\n") + i2 + "{\"name\": \"" + JsonEscape(g.name) +
           "\", \"labels\": " + LabelsJson(g.labels) +
           ", \"value\": " + std::to_string(g.value) + "}";
  }
  out += snapshot.gauges.empty() ? "],\n" : "\n" + i1 + "],\n";

  out += i1 + "\"histograms\": [";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    const auto& s = h.summary;
    out += (i == 0 ? "\n" : ",\n") + i2 + "{\"name\": \"" + JsonEscape(h.name) +
           "\", \"labels\": " + LabelsJson(h.labels) +
           ", \"count\": " + std::to_string(s.count) + ", \"min\": " + Num(s.min) +
           ", \"mean\": " + Num(s.mean) + ", \"max\": " + Num(s.max) +
           ", \"p50\": " + Num(s.p50) + ", \"p95\": " + Num(s.p95) +
           ", \"p99\": " + Num(s.p99) + "}";
  }
  out += snapshot.histograms.empty() ? "]\n" : "\n" + i1 + "]\n";

  out += indent + "}";
  return out;
}

std::string ToJson(const SpanTrace& trace, const std::string& indent) {
  std::string out = "[";
  const std::string i1 = indent + "  ";
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const Span& span = trace.spans()[i];
    // Built by string append (not a fixed snprintf buffer) so long escaped
    // names can never truncate mid-document.
    char nums[120];
    std::snprintf(nums, sizeof(nums),
                  "\", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                  ", \"duration_ns\": %" PRId64 "}",
                  span.start, span.end, span.duration());
    out += (i == 0 ? "\n" : ",\n") + i1 + "{\"name\": \"" + JsonEscape(span.name) + nums;
  }
  out += trace.spans().empty() ? "]" : "\n" + indent + "]";
  return out;
}

std::string ToChromeTrace(const std::vector<SpanTrace>& timelines) {
  // The trace_event "JSON Array Format": a bare array of complete events is
  // a valid document for chrome://tracing and Perfetto. Timestamps and
  // durations are microseconds by that spec; the nanos here are virtual, so
  // sub-microsecond spans keep their precision through the fraction.
  return ToChromeTrace(timelines, Journal(), {});
}

std::string ToChromeTrace(const std::vector<SpanTrace>& timelines, const Journal& journal,
                          const std::vector<CounterSeries>& counters) {
  const std::vector<Event> events = journal.Snapshot();

  // One small reference per trace entry. Sorting on (at, kind, index) is the
  // stable by-time order of spans, then journal instants (already canonical),
  // then counter points; ts is then monotone within every tid, which trace
  // validators check. Each entry is then rendered once, straight into `out`.
  enum Kind : uint32_t { kSpan, kInstant, kCounter };
  struct Ref {
    Nanos at;
    Kind kind;
    uint32_t outer;  // timeline, event or series index
    uint32_t inner;  // span or point index
  };
  std::vector<Ref> refs;
  refs.reserve(events.size());
  for (uint32_t tid = 0; tid < timelines.size(); ++tid) {
    const std::vector<Span>& spans = timelines[tid].spans();
    for (uint32_t i = 0; i < spans.size(); ++i) {
      refs.push_back({spans[i].start, kSpan, tid, i});
    }
  }
  for (uint32_t i = 0; i < events.size(); ++i) {
    refs.push_back({events[i].at, kInstant, i, 0});
  }
  for (uint32_t s = 0; s < counters.size(); ++s) {
    for (uint32_t i = 0; i < counters[s].points.size(); ++i) {
      refs.push_back({counters[s].points[i].first, kCounter, s, i});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.at, a.kind, a.outer, a.inner) < std::tie(b.at, b.kind, b.outer, b.inner);
  });

  std::string out;
  out.reserve(refs.size() * 160 + 4);
  out += '[';
  for (size_t r = 0; r < refs.size(); ++r) {
    const Ref& ref = refs[r];
    out += r == 0 ? "\n  " : ",\n  ";
    switch (ref.kind) {
      case kSpan: {
        const Span& span = timelines[ref.outer].spans()[ref.inner];
        out += "{\"name\": \"";
        AppendJsonEscaped(&out, span.name);
        out += "\", \"ph\": \"X\", \"ts\": ";
        AppendFixed(&out, ToMicros(span.start), 3);
        out += ", \"dur\": ";
        AppendFixed(&out, ToMicros(span.duration()), 3);
        out += ", \"pid\": 1, \"tid\": ";
        AppendInt(&out, ref.outer);
        out += '}';
        break;
      }
      case kInstant: {
        // Journal events become thread-scoped instants. An integer "worker"
        // field pins the instant to that worker's thread row; everything
        // else lands on tid 0. All fields ride along under args.
        const Event& event = events[ref.outer];
        int64_t tid = 0;
        for (const Field& field : event.fields) {
          if (const auto* w = std::get_if<int64_t>(&field.value); w && field.key == "worker") {
            tid = *w;
          }
        }
        out += "{\"name\": \"";
        AppendJsonEscaped(&out, event.source);
        out += '/';
        AppendJsonEscaped(&out, event.type);
        out += "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ";
        AppendFixed(&out, ToMicros(event.at), 3);
        out += ", \"pid\": 1, \"tid\": ";
        AppendInt(&out, tid);
        out += ", \"args\": {";
        for (size_t i = 0; i < event.fields.size(); ++i) {
          out += i == 0 ? "\"" : ", \"";
          AppendJsonEscaped(&out, event.fields[i].key);
          out += "\": ";
          AppendFieldValueJson(&out, event.fields[i].value);
        }
        out += "}}";
        break;
      }
      case kCounter: {
        const auto& [at, value] = counters[ref.outer].points[ref.inner];
        out += "{\"name\": \"";
        AppendJsonEscaped(&out, counters[ref.outer].name);
        out += "\", \"ph\": \"C\", \"ts\": ";
        AppendFixed(&out, ToMicros(at), 3);
        out += ", \"pid\": 1, \"tid\": 0, \"args\": {\"value\": ";
        AppendFixed(&out, value, 6);
        out += "}}";
        break;
      }
    }
  }
  out += refs.empty() ? "]" : "\n]";
  return out;
}

std::string ExportJson(const MetricRegistry& registry) { return ToJson(registry.Collect()); }

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status(Err::kIo, "cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const int close_err = std::fclose(f);
  if (written != contents.size() || close_err != 0) {
    return Status(Err::kIo, "short write to " + path);
  }
  return Status::Ok();
}

}  // namespace lupine::telemetry
