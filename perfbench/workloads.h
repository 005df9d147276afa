// The benchmark's three workloads. Each is a closed loop: main.cc calls Run()
// back to back, one iteration at a time, on one host process. An
// iteration does the workload's work through the libraries' public entry
// points and ends by exporting the run's three artifacts in memory (metrics
// JSON, canonical journal, Perfetto trace), as every real run does.
//
// Inputs come only from the benchmark seed: each workload derives kInputs
// input sets from it (a fleet app draw, a scenario seed_override, a serving
// arrival seed) and iteration k uses input k mod kInputs, so one run averages
// over several draws and two runs with one seed do identical simulated work.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host_trace.h"
#include "src/util/result.h"

namespace perfbench {

// Distinct input sets per run.
inline constexpr size_t kInputs = 16;

struct Config {
  std::string scenario_dir = "bench/scenarios";
  size_t workers = 1;  // Host worker threads.
};

struct IterationResult {
  // FNV-1a of the iteration's canonical figures plus the journal's canonical
  // export: a pure function of the input, so it must repeat exactly.
  uint64_t digest = 0;
  uint64_t ops = 0;
  uint64_t ops_failed = 0;
  // Units of simulated work the host cost is divided by: VMs booted, guest
  // syscalls executed or requests served.
  double units = 0;
  // Output checks that failed, one line each.
  std::vector<std::string> problems;
  // Figures on the virtual clock, deterministic per input.
  std::map<std::string, double> virtual_metrics;
  // Counts the layers published for this iteration (summed over traced
  // iterations by main.cc).
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs one iteration on input `input`. Spans go to `trace` when enabled.
  virtual IterationResult Run(size_t input, HostTrace& trace) = 0;
  // Traced iterations only, after Run() and outside its timing: times the
  // lower layers directly on the same inputs the iteration just used.
  virtual void Probe(HostTrace& trace) = 0;
};

const std::vector<std::string>& WorkloadNames();

// Builds the workload's inputs and caches (its set-up). Fails on an unknown
// name or unreadable inputs.
lupine::Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                       uint64_t seed, const Config& config);

uint64_t Fnv1a(const std::string& bytes);

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double p);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
