// perfbench: host cost of the simulator per simulated VM, guest syscall and
// served request, with a per-layer breakdown on traced runs.
//
//   perfbench --workload <fleet-cold|guest-exec|serve-restore> --seed N
//             --seconds S [--trace 0|1] [--scenarios DIR] [--trace-out FILE]
//             [--workers N] [--expect-digest HEX] [--setup-only]
//
// Prints one `<kind> <name> <value> <unit>` line per figure (kinds:
// end_to_end, virtual, layer, layer_time, info) and exits non-zero when an
// output check fails. perfbench/run.py builds this binary, runs it and turns
// these lines into the benchmark's JSON result.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "host_trace.h"
#include "src/kbuild/syscalls.h"
#include "workloads.h"

namespace {

using perfbench::HostTrace;
using perfbench::IterationResult;
using perfbench::Percentile;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  size_t workers = 1;
  std::string scenario_dir = "bench/scenarios";
  std::string trace_out;
  std::string expect_digest;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workers") {
      args.workers = std::strtoull(value, nullptr, 10);
    } else if (flag == "--scenarios") {
      args.scenario_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--expect-digest") {
      args.expect_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 && args.workers > 0;
}

void Print(const char* kind, const std::string& name, double value, const char* unit) {
  std::printf("%s %s %.9g %s\n", kind, name.c_str(), value, unit);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string Hex(uint64_t value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%016" PRIx64, value);
  return text;
}

// The workload-specific spelling of the per-unit host cost.
struct UnitMetric {
  const char* name;
  const char* unit;
  double ns_per_unit;
};
UnitMetric UnitMetricFor(const std::string& workload) {
  if (workload == "fleet-cold") return {"fleet.host_us_per_vm", "us", 1e3};
  if (workload == "guest-exec") return {"guest.host_ns_per_syscall", "ns", 1.0};
  return {"serve.host_us_per_request", "us", 1e3};
}

// Per-layer figures over the traced iterations. `sums` adds up every
// iteration's IterationResult::layers; span figures come from `trace`.
void PrintLayers(const std::map<std::string, double>& sums, double iterations,
                 const HostTrace& trace) {
  auto sum = [&](const std::string& key) {
    auto it = sums.find(key);
    return it == sums.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto by_name = trace.Totals(/*by_layer=*/false);
  auto span_ns = [&](const std::string& name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  auto span_count = [&](const std::string& name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.spans);
  };
  auto per_iter = [&](double value) { return ratio(value, iterations); };

  Print("layer", "kconfig.specialize_ms", per_iter(sum("kconfig.specialize_ns")) / 1e6, "ms");
  Print("layer", "kconfig.resolve_ms", per_iter(sum("kconfig.resolve_ns")) / 1e6, "ms");
  Print("layer", "kbuild.build_ms", per_iter(sum("kbuild.build_ns")) / 1e6, "ms");
  Print("layer", "kbuild.builds", per_iter(sum("kbuild.builds")), "count");
  Print("layer", "kbuild.us_per_build", ratio(sum("kbuild.build_ns"), sum("kbuild.builds")) / 1e3,
        "us");
  Print("layer", "apps.rootfs_ms", per_iter(sum("apps.rootfs_ns")) / 1e6, "ms");
  Print("layer", "apps.rootfs_builds", per_iter(sum("apps.rootfs_builds")), "count");
  Print("layer", "core.fleet_ms", per_iter(span_ns("core.RunFleetBoot")) / 1e6, "ms");
  Print("layer", "core.kernel_hit_ratio",
        ratio(sum("core.kernel_hits"), sum("core.kernel_requests")), "ratio");
  Print("layer", "core.snapshot_hit_ratio",
        ratio(sum("core.snapshot_hits"), sum("core.snapshot_lookups")), "ratio");
  Print("layer", "util.sched_steals", per_iter(sum("util.sched_steals")), "count");
  Print("layer", "vmm.boot_host_us",
        ratio(span_ns("vmm.LaunchBoot"), span_count("vmm.LaunchBoot")) / 1e3, "us");
  Print("layer", "vmm.restore_host_us",
        ratio(span_ns("vmm.Restore"), span_count("vmm.Restore")) / 1e3, "us");
  Print("layer", "unikernels.make_vm_ms", per_iter(span_ns("unikernels.MakeVmBoot")) / 1e6,
        "ms");
  Print("layer", "loadspec.parse_ms", per_iter(span_ns("loadspec.ParseScenario")) / 1e6, "ms");
  Print("layer", "loadspec.run_ms", per_iter(span_ns("loadspec.RunScenario")) / 1e6, "ms");
  Print("layer", "loadspec.iterations", per_iter(sum("loadspec.iterations")), "count");
  Print("layer", "guestos.syscalls", per_iter(sum("guestos.syscalls")), "count");
  for (int sys = 0; sys < lupine::kbuild::kNumSyscalls; ++sys) {
    const std::string name = std::string("guestos.syscalls.") +
                             lupine::kbuild::SyscallName(static_cast<lupine::kbuild::Sys>(sys));
    Print("layer", name, per_iter(sum(name)), "count");
  }
  Print("layer", "guestos.blocked", per_iter(sum("guestos.blocked")), "count");
  Print("layer", "serve.run_ms", per_iter(span_ns("serve.RunServing")) / 1e6, "ms");
  Print("layer", "serve.requests", per_iter(sum("serve.requests")), "count");
  Print("layer", "serve.warm_hit_ratio", ratio(sum("serve.warm_hits"), sum("serve.requests")),
        "ratio");
  for (const char* name : {"serve.restores", "serve.cold_boots", "serve.refills",
                           "serve.queue_waits", "serve.exec_divergence"}) {
    Print("layer", name, per_iter(sum(name)), "count");
  }
  double export_ns = 0;
  for (const char* name :
       {"telemetry.ExportJson", "telemetry.ExportJsonl", "telemetry.ToChromeTrace"}) {
    export_ns += span_ns(name);
  }
  Print("layer", "telemetry.export_ms", per_iter(export_ns) / 1e6, "ms");
  Print("layer", "telemetry.journal_events", per_iter(sum("telemetry.journal_events")),
        "count");
  Print("layer", "telemetry.journal_dropped", per_iter(sum("telemetry.journal_dropped")),
        "count");

  // Total and self time per layer, per traced iteration; "bench" is the
  // iteration span itself, whose self time is the benchmark's own glue.
  for (const auto& [kind, times] : {std::pair{"layer_time", trace.Totals(/*by_layer=*/true)},
                                     std::pair{"span_time", by_name}}) {
    for (const auto& [name, time] : times) {
      std::printf("%s %s total_ms %.6f self_ms %.6f spans %lld\n", kind, name.c_str(),
                  per_iter(static_cast<double>(time.total_ns)) / 1e6,
                  per_iter(static_cast<double>(time.self_ns)) / 1e6,
                  static_cast<long long>(time.spans));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t start_ns = perfbench::HostNowNs();
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S [--trace 0|1] "
                 "[--workers N] [--scenarios DIR] [--trace-out FILE] [--expect-digest HEX] "
                 "[--setup-only]\n");
    return 2;
  }
  perfbench::Config config;
  config.scenario_dir = args.scenario_dir;
  config.workers = args.workers;

  // Set-up: inputs, warm caches and one untimed warm-up iteration, so lazy
  // one-time work inside the libraries is paid before timing starts.
  auto made = perfbench::MakeWorkload(args.workload, args.seed, config);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<perfbench::Workload> workload = made.take();
  HostTrace trace;
  std::vector<uint64_t> digests(perfbench::kInputs, 0);
  std::vector<std::map<std::string, double>> virtuals(perfbench::kInputs);
  std::vector<std::string> problems;
  auto check = [&](size_t input, IterationResult& result) {
    for (std::string& problem : result.problems) {
      problems.push_back(std::move(problem));
    }
    if (digests[input] == 0) {
      digests[input] = result.digest;
      virtuals[input] = result.virtual_metrics;
    } else if (digests[input] != result.digest || virtuals[input] != result.virtual_metrics) {
      problems.push_back("input " + std::to_string(input) + " digest " +
                         Hex(result.digest) + " differs from its first run " +
                         Hex(digests[input]));
      result.ops_failed = result.ops;
    }
  };
  {
    IterationResult warmup = workload->Run(0, trace);
    check(0, warmup);
  }
  const double setup_s = static_cast<double>(perfbench::HostNowNs() - start_ns) / 1e9;
  if (args.setup_only) {
    Print("end_to_end", "setup_s", setup_s, "s");
    return problems.empty() ? 0 : 1;
  }

  // Closed loop: back-to-back iterations until the time is up and every
  // input ran at least twice, so each one's determinism is checked. With
  // --trace 1, odd iterations are traced and even ones are not, so both see
  // the same host conditions.
  std::vector<double> iter_ms, traced_iter_ms, ns_per_unit;
  std::map<std::string, double> layer_sums;
  uint64_t ops = 0, ops_failed = 0;
  double rss_mb = 0;
  const int64_t deadline = perfbench::HostNowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (size_t k = 0; k < 2 * perfbench::kInputs || perfbench::HostNowNs() < deadline; ++k) {
    const size_t input = k % perfbench::kInputs;
    const bool traced = args.trace && k % 2 == 1;
    trace.set_enabled(traced);
    trace.set_iteration(static_cast<int64_t>(k));
    const int64_t t0 = perfbench::HostNowNs();
    IterationResult result;
    {
      HostTrace::Scope span(&trace, "bench.iteration");
      result = workload->Run(input, trace);
    }
    const double elapsed_ns = static_cast<double>(perfbench::HostNowNs() - t0);
    if (traced) {
      HostTrace::Scope span(&trace, "bench.probe");
      workload->Probe(trace);
    }
    // Memory after a fixed amount of work, so machine speed (how many
    // iterations fit in the run) does not change it.
    if (k + 1 == 2 * perfbench::kInputs) {
      rss_mb = PeakRssMb();
    }
    check(input, result);
    ops += result.ops;
    ops_failed += result.ops_failed;
    if (traced) {
      traced_iter_ms.push_back(elapsed_ns / 1e6);
      for (const auto& [key, value] : result.layers) {
        layer_sums[key] += value;
      }
    } else {
      iter_ms.push_back(elapsed_ns / 1e6);
      if (result.units > 0) {
        ns_per_unit.push_back(elapsed_ns / result.units);
      }
    }
  }
  trace.set_enabled(false);

  const UnitMetric unit = UnitMetricFor(args.workload);
  const double median_ns_per_unit = Percentile(ns_per_unit, 0.5);
  std::printf("info workload %s seed %" PRIu64 " inputs %zu\n", args.workload.c_str(),
              args.seed, perfbench::kInputs);
  std::printf("info ops %" PRIu64 " ops_failed %" PRIu64 " iter_samples %zu\n", ops,
              ops_failed, iter_ms.size());
  Print("end_to_end", "setup_s", setup_s, "s");
  Print("end_to_end", "host_ns_per_unit", median_ns_per_unit, "ns");
  Print("end_to_end", unit.name, median_ns_per_unit / unit.ns_per_unit, unit.unit);
  Print("end_to_end", "iter_ms_p50", Percentile(iter_ms, 0.5), "ms");
  Print("end_to_end", "iter_ms_p90", Percentile(iter_ms, 0.9), "ms");
  Print("end_to_end", "peak_rss_mb", rss_mb, "MB");
  std::printf("info peak_rss_mb_at_exit %.3f\n", PeakRssMb());

  // Virtual-clock figures: the median over the run's inputs, each of which
  // is deterministic.
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& figures : virtuals) {
    for (const auto& [name, value] : figures) {
      by_name[name].push_back(value);
    }
  }
  for (const auto& [name, values] : by_name) {
    Print("virtual", name, Percentile(values, 0.5),
          name.find("_ns") != std::string::npos ? "ns" : "ms");
  }

  // The workload digest folds every input's digest in input order.
  std::string folded;
  for (uint64_t digest : digests) {
    folded += Hex(digest) + "\n";
  }
  const std::string digest = Hex(perfbench::Fnv1a(folded));
  std::printf("info digest %s\n", digest.c_str());
  if (!args.expect_digest.empty() && args.expect_digest != digest) {
    problems.push_back("digest " + digest + " != expected " + args.expect_digest);
  }

  if (args.trace) {
    const double traced_iterations = static_cast<double>(traced_iter_ms.size());
    PrintLayers(layer_sums, traced_iterations, trace);
    Print("layer", "trace.iter_ms_p50", Percentile(traced_iter_ms, 0.5), "ms");
    Print("layer", "trace.overhead_ms",
          Percentile(traced_iter_ms, 0.5) - Percentile(iter_ms, 0.5), "ms");
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << trace.ToPerfetto();
      if (!out) {
        problems.push_back("cannot write " + args.trace_out);
      }
    }
  }

  for (size_t i = 0; i < problems.size() && i < 20; ++i) {
    std::printf("problem %s\n", problems[i].c_str());
  }
  std::printf("info correct %s\n", problems.empty() ? "true" : "false");
  return problems.empty() ? 0 : 1;
}
