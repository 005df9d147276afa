// Host-level microbenchmarks (google-benchmark) of the simulator's own
// primitives: fiber switching and lifecycle, scheduler throughput, guest
// syscall metric publication, rootfs codec, config
// resolution, fingerprinting and validation, kernel image builds (serial and
// on 4 threads), journal/trace emission. These measure the reproduction
// infrastructure itself, not the simulated guest.
#include <benchmark/benchmark.h>

#include "src/apps/manifest.h"
#include "src/apps/rootfs_builder.h"
#include "src/core/lupine.h"
#include "src/core/multik.h"
#include "src/guestos/rootfs.h"
#include "src/guestos/sched.h"
#include "src/guestos/trace.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/util/fiber.h"
#include "tests/telemetry/tie_heavy_record.h"

namespace {

using namespace lupine;

void BM_FiberSwitch(benchmark::State& state) {
  bool done = false;
  Fiber fiber([&] {
    while (!done) {
      Fiber::Yield();
    }
  });
  for (auto _ : state) {
    fiber.Resume();
  }
  done = true;
  fiber.Resume();
}
BENCHMARK(BM_FiberSwitch);

// A guest thread's whole life: create, run to completion, destroy. Covers
// taking a stack from the pool and handing it back.
void BM_FiberCreateRun(benchmark::State& state) {
  int runs = 0;
  for (auto _ : state) {
    Fiber fiber([&runs] { ++runs; });
    fiber.Resume();
  }
  benchmark::DoNotOptimize(runs);
}
BENCHMARK(BM_FiberCreateRun);

void BM_SchedulerYieldPair(benchmark::State& state) {
  for (auto _ : state) {
    VirtualClock clock;
    kbuild::KernelFeatures features;
    guestos::Scheduler sched(&clock, &guestos::DefaultCostModel(), &features);
    for (int t = 0; t < 2; ++t) {
      sched.Spawn(nullptr, [&sched] {
        for (int i = 0; i < 100; ++i) {
          sched.YieldCurrent();
        }
      });
    }
    sched.Run();
    benchmark::DoNotOptimize(clock.now());
  }
}
BENCHMARK(BM_SchedulerYieldPair);

// Guest syscall metric publication on the mix of one scenario-corpus pass
// (~16k accounted syscalls over 15 syscall kinds), into a fresh registry.
void BM_PublishSyscallMetrics(benchmark::State& state) {
  const std::pair<kbuild::Sys, int> kMix[] = {
      {kbuild::Sys::kRead, 3707},        {kbuild::Sys::kWrite, 3771},
      {kbuild::Sys::kOpen, 72},          {kbuild::Sys::kClose, 60},
      {kbuild::Sys::kStat, 343},         {kbuild::Sys::kBrk, 96},
      {kbuild::Sys::kFork, 60},          {kbuild::Sys::kWait4, 60},
      {kbuild::Sys::kGetppid, 1789},     {kbuild::Sys::kNanosleep, 227},
      {kbuild::Sys::kClockGettime, 690}, {kbuild::Sys::kSchedYield, 60},
      {kbuild::Sys::kFutex, 180},        {kbuild::Sys::kSendto, 2400},
      {kbuild::Sys::kRecvfrom, 2400},
  };
  guestos::TraceLog trace;
  for (const auto& [nr, count] : kMix) {
    for (int i = 0; i < count; ++i) {
      trace.AccountSyscall(nr, 40 + i % 13);
    }
  }
  for (auto _ : state) {
    telemetry::MetricRegistry registry;
    guestos::PublishSyscallMetrics(trace, registry, "hello-world", /*kml=*/true);
    benchmark::DoNotOptimize(&registry);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.accounted_syscalls()));
}
BENCHMARK(BM_PublishSyscallMetrics)->Unit(benchmark::kMicrosecond);

void BM_RootfsFormatParse(benchmark::State& state) {
  std::string blob = apps::BuildAppRootfsForApp("redis", true);
  for (auto _ : state) {
    auto spec = guestos::ParseRootfs(blob);
    benchmark::DoNotOptimize(spec.ok());
  }
}
BENCHMARK(BM_RootfsFormatParse);

void BM_ConfigResolveApp(benchmark::State& state) {
  for (auto _ : state) {
    auto config = kconfig::LupineForApp("nginx");
    benchmark::DoNotOptimize(config.ok());
  }
}
BENCHMARK(BM_ConfigResolveApp);

void BM_KernelImageBuild(benchmark::State& state) {
  kconfig::Config config = kconfig::LupineGeneral();
  kbuild::ImageBuilder builder;
  for (auto _ : state) {
    auto image = builder.Build(config);
    benchmark::DoNotOptimize(image.ok());
  }
}
BENCHMARK(BM_KernelImageBuild);
// The fleet build's shape: independent builds on 4 threads. Reported time is
// wall time per build over all threads, so ~1/4 of the serial figure means
// the builds scale; a shared lock on the build path shows up as CPU time per
// build growing above the serial figure.
BENCHMARK(BM_KernelImageBuild)->Threads(4)->UseRealTime();

// The configuration a fleet worker fingerprints and validates per app.
kconfig::Config NginxSpecialized() {
  return core::LupineBuilder().SpecializeConfig(*apps::FindManifest("nginx")).take();
}

void BM_ConfigFingerprint(benchmark::State& state) {
  const kconfig::Config config = NginxSpecialized();
  for (auto _ : state) {
    std::string fingerprint = core::KernelCache::ConfigFingerprint(config);
    benchmark::DoNotOptimize(fingerprint.data());
  }
  state.counters["options"] = static_cast<double>(config.EnabledCount());
}
BENCHMARK(BM_ConfigFingerprint);

void BM_ResolverValidate(benchmark::State& state) {
  const kconfig::Config config = NginxSpecialized();
  const kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.Validate(config).ok());
  }
  state.counters["options"] = static_cast<double>(config.EnabledCount());
}
BENCHMARK(BM_ResolverValidate);

// Journal/metrics emission layer, on a serving-shaped record: ~3,400 of its
// ~6,500 events tie at at=0, so the canonical sort leans on its tie-break.
void BM_JournalSnapshotTies(benchmark::State& state) {
  const telemetry::testing::TieHeavyRecord record;
  for (auto _ : state) {
    auto events = record.journal.Snapshot(true);
    benchmark::DoNotOptimize(events.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(record.journal.size()));
}
BENCHMARK(BM_JournalSnapshotTies)->Unit(benchmark::kMillisecond);

void BM_ToChromeTrace(benchmark::State& state) {
  const telemetry::testing::TieHeavyRecord record;
  for (auto _ : state) {
    std::string trace = telemetry::ToChromeTrace(record.timelines, record.journal, record.counters);
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(record.journal.size()));
}
BENCHMARK(BM_ToChromeTrace)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
