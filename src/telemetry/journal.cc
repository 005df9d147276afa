#include "src/telemetry/journal.h"

#include <algorithm>
#include <charconv>
#include <numeric>

#include "src/util/json.h"

namespace lupine::telemetry {
namespace {

template <typename Number>
void AppendNumber(std::string* out, Number value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

}  // namespace

void AppendFieldValueJson(std::string* out, const FieldValue& value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    AppendNumber(out, *i);
  } else if (const auto* u = std::get_if<uint64_t>(&value)) {
    AppendNumber(out, *u);
  } else if (const auto* d = std::get_if<double>(&value)) {
    // %.17g round-trips doubles and prints integers without a spurious
    // fraction, keeping the export stable across compilers. to_chars with
    // a precision formats exactly as printf does.
    char buf[32];
    out->append(buf,
                std::to_chars(buf, buf + sizeof(buf), *d, std::chars_format::general, 17).ptr);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    *out += *b ? "true" : "false";
  } else {
    *out += '"';
    AppendJsonEscaped(out, std::get<std::string>(value));
    *out += '"';
  }
}

std::string EventToJsonLine(const Event& event) {
  std::string out;
  out.reserve(128);
  out += "{\"at\":";
  AppendNumber(&out, event.at);
  out += ",\"source\":\"";
  AppendJsonEscaped(&out, event.source);
  out += "\",\"type\":\"";
  AppendJsonEscaped(&out, event.type);
  out += '"';
  for (const Field& field : event.fields) {
    out += ",\"";
    AppendJsonEscaped(&out, field.key);
    out += "\":";
    AppendFieldValueJson(&out, field.value);
  }
  out += '}';
  return out;
}

void Journal::Emit(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(event.source);
  if (it == rings_.end()) {
    it = rings_.emplace(event.source, Ring{}).first;
  }
  Ring& ring = it->second;
  if (ring.events.size() >= ring_capacity_) {
    ring.events.pop_front();
    ++ring.dropped;
  }
  ring.events.push_back(std::move(event));
}

void Journal::Emit(Nanos at, std::string_view source, std::string_view type,
                   std::vector<Field> fields) {
  Emit(Event{at, std::string(source), std::string(type), std::move(fields)});
}

Journal::Canonical Journal::CanonicalOrder(bool include_schedule_scoped) const {
  Canonical canonical;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& [_, ring] : rings_) {
      total += ring.events.size();
    }
    canonical.events.reserve(total);
    for (const auto& [source, ring] : rings_) {
      for (const Event& event : ring.events) {
        if (include_schedule_scoped || !event.schedule_scoped) {
          canonical.events.push_back(event);
        }
      }
      if (ring.dropped > 0) {
        canonical.dropped.emplace_back(source, ring.dropped);
      }
    }
  }
  const std::vector<Event>& events = canonical.events;
  std::vector<std::string>& lines = canonical.lines;
  lines.reserve(events.size());
  for (const Event& event : events) {
    lines.push_back(EventToJsonLine(event));
  }
  // Ties on (at, source, type) are common — a serving run parks thousands
  // of at=0 events under one pair — so they are broken on the precomputed
  // lines rather than by serializing inside the comparator.
  canonical.order.resize(events.size());
  std::iota(canonical.order.begin(), canonical.order.end(), 0u);
  std::stable_sort(canonical.order.begin(), canonical.order.end(), [&](uint32_t a, uint32_t b) {
    const Event& x = events[a];
    const Event& y = events[b];
    if (x.at != y.at) {
      return x.at < y.at;
    }
    if (const int c = x.source.compare(y.source); c != 0) {
      return c < 0;
    }
    if (const int c = x.type.compare(y.type); c != 0) {
      return c < 0;
    }
    return lines[a] < lines[b];
  });
  return canonical;
}

std::vector<Event> Journal::Snapshot(bool include_schedule_scoped) const {
  Canonical canonical = CanonicalOrder(include_schedule_scoped);
  std::vector<Event> events;
  events.reserve(canonical.order.size());
  for (uint32_t i : canonical.order) {
    events.push_back(std::move(canonical.events[i]));
  }
  return events;
}

std::string Journal::ExportJsonl(bool include_schedule_scoped) const {
  const Canonical canonical = CanonicalOrder(include_schedule_scoped);
  size_t bytes = 0;
  for (const std::string& line : canonical.lines) {
    bytes += line.size() + 1;
  }
  std::string out;
  out.reserve(bytes);
  for (uint32_t i : canonical.order) {
    out += canonical.lines[i];
    out += '\n';
  }
  for (const auto& [source, count] : canonical.dropped) {
    Event note{0, "journal", "dropped",
               {{"from", FieldValue{source}}, {"count", FieldValue{count}}}};
    out += EventToJsonLine(note);
    out += '\n';
  }
  return out;
}

uint64_t Journal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [_, ring] : rings_) {
    total += ring.dropped;
  }
  return total;
}

uint64_t Journal::dropped(std::string_view source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(source);
  return it == rings_.end() ? 0 : it->second.dropped;
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [_, ring] : rings_) {
    total += ring.events.size();
  }
  return total;
}

void Journal::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
}

}  // namespace lupine::telemetry
