// A deterministic, tie-heavy flight record: the shape a snapshot-serving run
// leaves behind. Thousands of schedule-scoped events sit at at=0 sharing one
// (source, type), so the canonical order is decided by their serialized
// fields. Around them: equal timestamps across sources, integer (and
// non-integer) "worker" fields, strings that need JSON escaping, a ring that
// drops, and spans and counter points stamped at the same instants as
// events. Shared by the export byte-identity test and the host
// microbenchmarks so both exercise the same input.
#ifndef TESTS_TELEMETRY_TIE_HEAVY_RECORD_H_
#define TESTS_TELEMETRY_TIE_HEAVY_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/journal.h"
#include "src/telemetry/span.h"
#include "src/util/units.h"

namespace lupine::telemetry::testing {

struct TieHeavyRecord {
  static constexpr size_t kRingCapacity = 2500;
  static constexpr int kWarmPoolTakes = 2400;

  Journal journal{kRingCapacity};
  std::vector<SpanTrace> timelines = std::vector<SpanTrace>(3);
  std::vector<CounterSeries> counters;

  TieHeavyRecord() {
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    const std::vector<std::string> apps = {
        "nginx",     "redis",         "postgres",    "mem\"cached", "path\\to\\app",
        "line\nbrk", "tab\tcr\rhere", "ctl\x01\x1f", "utf8-\xc3\xa9"};
    auto app = [&] { return FieldValue{apps[next() % apps.size()]}; };
    auto scoped = [this](Nanos at, const char* source, const char* type,
                         std::vector<Field> fields) {
      Event event{at, source, type, std::move(fields)};
      event.schedule_scoped = true;
      journal.Emit(std::move(event));
    };

    // Warm-pool takes: all at=0 under one (source, type), emitted in a
    // scrambled request order; every 100th is emitted twice (equal lines).
    for (int i = 0; i < kWarmPoolTakes; ++i) {
      const int64_t request = (int64_t{i} * 7919) % kWarmPoolTakes;
      std::vector<Field> fields = {{"request", FieldValue{request}},
                                   {"app", app()},
                                   {"worker", FieldValue{static_cast<int64_t>(next() % 4)}},
                                   {"hit", FieldValue{next() % 3 != 0}},
                                   {"ratio", FieldValue{static_cast<double>(request) / 7.0}}};
      if (i % 100 == 0) {
        scoped(0, "warm-pool", "take", fields);
      }
      scoped(0, "warm-pool", "take", std::move(fields));
    }
    // Snapshot restores: at=0, unsigned fields, worker pinned.
    for (int i = 0; i < 600; ++i) {
      scoped(0, "snapshot-cache", "restore",
             {{"key", FieldValue{next()}},
              {"bytes", FieldValue{static_cast<uint64_t>(next() % (64u << 20))}},
              {"worker", FieldValue{static_cast<int64_t>(i % 4)}}});
    }
    // Admission verdicts: at=0, canonical (not schedule-scoped).
    const char* verdicts[] = {"admit", "degrade", "queue", "reject"};
    for (int i = 0; i < 400; ++i) {
      journal.Emit(0, "admission", "verdict",
                   {{"verdict", FieldValue{std::string(verdicts[next() % 4])}},
                    {"mem_mb", FieldValue{static_cast<int64_t>(next() % 512) - 64}},
                    {"note", app()}});
    }
    // Equal timestamps across sources on a 50-instant grid. Only fleet's
    // worker is an int64; the others must stay on tid 0.
    for (int k = 0; k < 600; ++k) {
      const Nanos at = Millis(static_cast<int64_t>(next() % 50));
      switch (k % 3) {
        case 0:
          journal.Emit(at, "fleet", "task-start",
                       {{"app", app()}, {"worker", FieldValue{static_cast<int64_t>(k % 4)}}});
          break;
        case 1:
          journal.Emit(at, "supervisor", "probe",
                       {{"worker", FieldValue{std::string("w1")}},
                        {"backoff", FieldValue{static_cast<double>(next() % 1000) / 3.0}}});
          break;
        default:
          journal.Emit(at, "kernel-cache", "cache-hit",
                       {{"worker", FieldValue{static_cast<uint64_t>(k % 4)}},
                        {"bytes", FieldValue{static_cast<int64_t>(-k)}}});
      }
    }
    // A chatty schedule-scoped source that overflows its ring.
    for (int i = 0; i < static_cast<int>(kRingCapacity) + 10; ++i) {
      scoped(Micros(i * 3), "sched", "steal",
             {{"worker", FieldValue{static_cast<int64_t>(i % 4)}},
              {"victim", FieldValue{static_cast<int64_t>((i + 1) % 4)}}});
    }
    // Events with no fields, on and off the grid.
    journal.Emit(0, "journal", "mark");
    journal.Emit(Millis(7), "fleet", "done");

    // Spans on the same grid; starts are unsorted within a timeline and some
    // durations land on %.3f rounding boundaries.
    const char* names[] = {"boot", "restore", "serve \"req\"", "exec\\path"};
    for (size_t tid = 0; tid < timelines.size(); ++tid) {
      timelines[tid].Record("warm", 0, Micros(5));
      for (int k = 0; k < 40; ++k) {
        const Nanos start = Millis(static_cast<int64_t>(next() % 50));
        const Nanos duration = static_cast<Nanos>(next() % 5'000'000) + (k % 2 == 0 ? 500 : 1);
        timelines[tid].Record(names[next() % 4], start, start + duration);
      }
    }

    // Counter tracks at event instants, including at=0.
    CounterSeries inflight{"serve.inflight", {}};
    for (int k = 0; k < 100; ++k) {
      inflight.points.emplace_back(Millis(static_cast<int64_t>(next() % 50)), k / 3.0);
    }
    counters.push_back(std::move(inflight));
    counters.push_back(CounterSeries{"pool \"bytes\"\n",
                                     {{0, -1.5},
                                      {0, 1e9 + 0.123456789},
                                      {Millis(7), 0.0000005},
                                      {Millis(7), 0.0000015},
                                      {Millis(49), 123456789.0}}});
  }
};

}  // namespace lupine::telemetry::testing

#endif  // TESTS_TELEMETRY_TIE_HEAVY_RECORD_H_
