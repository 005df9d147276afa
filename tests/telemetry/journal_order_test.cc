// Byte-identity of the journal's canonical order and of the exports built on
// it. The digests are pinned to the bytes of a straightforward reference
// implementation (one that serialized both events inside every sort
// comparison and formatted every number with snprintf), so any change to
// ordering or number formatting in ExportJsonl or ToChromeTrace shows up
// here as a digest mismatch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/telemetry/export.h"
#include "src/telemetry/journal.h"
#include "tests/telemetry/tie_heavy_record.h"

namespace lupine::telemetry {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

size_t CountLines(std::string_view text) {
  size_t lines = 0;
  for (char c : text) {
    lines += c == '\n' ? 1 : 0;
  }
  return lines;
}

TEST(JournalOrderTest, TieHeavyExportsMatchPinnedDigests) {
  const testing::TieHeavyRecord record;
  ASSERT_EQ(record.journal.dropped(), 10u);  // The "sched" ring overflowed.

  const std::string canonical = record.journal.ExportJsonl(false);
  const std::string full = record.journal.ExportJsonl(true);
  const std::string trace = ToChromeTrace(record.timelines, record.journal, record.counters);

  // 400 admission + 600 cross-source + 2 bare events, plus the drop note.
  EXPECT_EQ(CountLines(canonical), 1003u);
  EXPECT_EQ(CountLines(full), record.journal.size() + 1);

  EXPECT_EQ(Fnv1a(canonical), 0xed92f938410860a5ull);
  EXPECT_EQ(Fnv1a(full), 0x83ab8e1fb83e24b7ull);
  EXPECT_EQ(Fnv1a(trace), 0xe07715604f78ed13ull);
}

// Emitters racing an exporter: exports taken mid-storm must be safe, and once
// the emitters finish the exports must equal a single-threaded replay of the
// same event multiset. Exports serialize outside the journal's lock, so
// emitters are never held up by one.
TEST(JournalExportStormTest, ExportsDuringEmitMatchSerialReplay) {
  constexpr int kEmitters = 4;
  constexpr int kPerEmitter = 800;
  auto emit_all = [](Journal& journal, int t) {
    const std::string own = "worker-" + std::to_string(t);
    for (int i = 0; i < kPerEmitter; ++i) {
      Event take{0, "warm-pool", "take",
                 {{"worker", FieldValue{int64_t{t}}}, {"request", FieldValue{int64_t{i}}}}};
      take.schedule_scoped = i % 2 == 0;
      journal.Emit(std::move(take));
      journal.Emit(Micros(i), own, "tick", {{"n", FieldValue{static_cast<uint64_t>(i)}}});
    }
  };
  std::vector<SpanTrace> timelines(1);
  timelines[0].Record("serve", 0, Micros(kPerEmitter));
  const std::vector<CounterSeries> counters = {{"inflight", {{0, 1.0}, {Micros(10), 2.0}}}};

  Journal concurrent;
  std::atomic<int> running{kEmitters};
  std::atomic<int> exports{0};
  std::thread exporter([&] {
    do {
      (void)ToChromeTrace(timelines, concurrent, counters);
      (void)concurrent.ExportJsonl(false);
      (void)concurrent.ExportJsonl(true);
      exports.fetch_add(1);
    } while (running.load() > 0);
  });
  std::vector<std::thread> emitters;
  for (int t = 0; t < kEmitters; ++t) {
    emitters.emplace_back([&, t] {
      emit_all(concurrent, t);
      running.fetch_sub(1);
    });
  }
  for (std::thread& emitter : emitters) {
    emitter.join();
  }
  exporter.join();
  EXPECT_GE(exports.load(), 1);
  EXPECT_EQ(concurrent.dropped(), 0u);

  Journal serial;
  for (int t = 0; t < kEmitters; ++t) {
    emit_all(serial, t);
  }
  EXPECT_EQ(concurrent.ExportJsonl(false), serial.ExportJsonl(false));
  EXPECT_EQ(concurrent.ExportJsonl(true), serial.ExportJsonl(true));
  EXPECT_EQ(ToChromeTrace(timelines, concurrent, counters),
            ToChromeTrace(timelines, serial, counters));
}

}  // namespace
}  // namespace lupine::telemetry
