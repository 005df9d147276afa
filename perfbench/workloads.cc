#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "src/core/fleet_boot.h"
#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/kconfig/presets.h"
#include "src/loadspec/interpreter.h"
#include "src/loadspec/parser.h"
#include "src/serve/front_door.h"
#include "src/telemetry/export.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/unikernels/linux_system.h"
#include "src/util/prng.h"
#include "src/vmm/vm.h"

namespace perfbench {

using namespace lupine;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

namespace {

// Stays constant so a seed names the same inputs in every build.
constexpr uint64_t kInputSalt = 0x70657266626e6368ull;

// VMs per fleet-cold iteration.
constexpr size_t kFleetVms = 60;

std::vector<uint64_t> InputSeeds(uint64_t seed, size_t count) {
  Prng root(seed ^ kInputSalt);
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < count; ++i) {
    seeds.push_back(root.Next());
  }
  return seeds;
}

template <typename T>
void Shuffle(std::vector<T>& items, Prng& prng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[prng.NextBelow(i)]);
  }
}

// Splits `total` over `ranks` in proportion to 1/(r+1), largest remainder
// first, so the counts always sum to `total`.
std::vector<size_t> ZipfCounts(size_t total, size_t ranks) {
  std::vector<double> shares(ranks);
  double weight_sum = 0;
  for (size_t r = 0; r < ranks; ++r) {
    weight_sum += 1.0 / static_cast<double>(r + 1);
  }
  std::vector<size_t> counts(ranks);
  size_t assigned = 0;
  for (size_t r = 0; r < ranks; ++r) {
    shares[r] = static_cast<double>(total) / static_cast<double>(r + 1) / weight_sum;
    counts[r] = static_cast<size_t>(shares[r]);
    assigned += counts[r];
  }
  std::vector<size_t> order(ranks);
  for (size_t r = 0; r < ranks; ++r) {
    order[r] = r;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shares[a] - static_cast<double>(counts[a]) > shares[b] - static_cast<double>(counts[b]);
  });
  for (size_t i = 0; assigned < total; ++i, ++assigned) {
    ++counts[order[i % ranks]];
  }
  return counts;
}

double CounterValue(const telemetry::MetricRegistry::Snapshot& snapshot,
                    const std::string& name) {
  double total = 0;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) {
      total += static_cast<double>(counter.value);
    }
  }
  return total;
}

// Host-wall nanoseconds KernelCache spent in one provisioning stage: the
// sum of build.stage_ns{stage=<stage>}.
double StageNs(const telemetry::MetricRegistry::Snapshot& snapshot, const std::string& stage) {
  double total = 0;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name != "build.stage_ns") {
      continue;
    }
    for (const auto& [key, value] : histogram.labels) {
      if (key == "stage" && value == stage) {
        total += histogram.summary.sum;
      }
    }
  }
  return total;
}

// Exports the iteration's three artifacts in memory, as a real run would
// write them out, and records the journal's size.
void ExportArtifacts(HostTrace& trace, const telemetry::MetricRegistry& registry,
                     const telemetry::Journal& journal,
                     const std::vector<telemetry::SpanTrace>& timelines,
                     const std::vector<telemetry::CounterSeries>& counters,
                     IterationResult& out) {
  {
    HostTrace::Scope span(&trace, "telemetry.ExportJson");
    (void)telemetry::ExportJson(registry);
  }
  {
    HostTrace::Scope span(&trace, "telemetry.ExportJsonl");
    (void)journal.ExportJsonl(false);
  }
  {
    HostTrace::Scope span(&trace, "telemetry.ToChromeTrace");
    (void)telemetry::ToChromeTrace(timelines, journal, counters);
  }
  out.layers["telemetry.journal_events"] += static_cast<double>(journal.size());
  out.layers["telemetry.journal_dropped"] += static_cast<double>(journal.dropped());
}

// Counts KernelCache publishes into the registry during one iteration.
void KernelCacheLayers(const telemetry::MetricRegistry::Snapshot& snapshot,
                       IterationResult& out) {
  out.layers["kconfig.specialize_ns"] += StageNs(snapshot, "specialize");
  out.layers["kconfig.resolve_ns"] += StageNs(snapshot, "resolve");
  out.layers["kbuild.build_ns"] += StageNs(snapshot, "build");
  out.layers["apps.rootfs_ns"] += StageNs(snapshot, "load-rootfs");
  out.layers["core.kernel_requests"] += CounterValue(snapshot, "kernelcache.requests");
  out.layers["core.kernel_hits"] += CounterValue(snapshot, "kernelcache.app_hits");
}

// --- fleet-cold ------------------------------------------------------------
// A fresh KernelCache per iteration: every distinct kernel is specialized,
// resolved and built, every rootfs assembled, then each VM boots to init.
// No guest fiber runs (run_workload=false).
class FleetCold : public Workload {
 public:
  FleetCold(uint64_t seed, const Config& config) : config_(config) {
    // Every draw has the same Zipf-shaped popularity profile over the
    // paper's top-20 apps (rank r gets a share proportional to 1/(r+1)); the
    // seed decides which app holds which rank and the order VMs are listed
    // in. A fleet thus repeats apps, exercising single-flight hits, while
    // draws stay comparable in size.
    const std::vector<std::string>& names = kconfig::Top20AppNames();
    const std::vector<size_t> counts = ZipfCounts(kFleetVms, names.size());
    for (uint64_t input_seed : InputSeeds(seed, kInputs)) {
      Prng prng(input_seed);
      std::vector<std::string> ranked = names;
      Shuffle(ranked, prng);
      std::vector<std::string> apps;
      for (size_t r = 0; r < ranked.size(); ++r) {
        apps.insert(apps.end(), counts[r], ranked[r]);
      }
      Shuffle(apps, prng);
      draws_.push_back(std::move(apps));
    }
  }

  IterationResult Run(size_t input, HostTrace& trace) override {
    IterationResult out;
    last_.cache.reset();  // Before the registry it publishes into.
    last_.registry = std::make_unique<telemetry::MetricRegistry>();
    last_.cache = std::make_unique<core::KernelCache>();
    telemetry::Journal journal;
    last_.cache->set_metrics(last_.registry.get());
    last_.cache->set_journal(&journal);
    last_.apps = draws_[input];

    core::FleetBootOptions options;
    options.apps = draws_[input];
    options.workers = config_.workers;
    options.metrics = last_.registry.get();
    options.journal = &journal;
    Result<core::FleetBootResult> fleet = Status(Err::kInval, "not run");
    {
      HostTrace::Scope span(&trace, "core.RunFleetBoot");
      fleet = core::RunFleetBoot(*last_.cache, options);
    }
    last_.cache->set_journal(nullptr);  // The journal dies with this call.
    if (!fleet.ok()) {
      out.problems.push_back("RunFleetBoot: " + fleet.status().ToString());
      out.ops = options.apps.size();
      out.ops_failed = out.ops;
      return out;
    }
    ExportArtifacts(trace, *last_.registry, journal, fleet->worker_timelines,
                    fleet->counter_tracks, out);

    out.ops = fleet->boots + fleet->failures;
    out.ops_failed = fleet->failures;
    out.units = static_cast<double>(fleet->boots);
    if (fleet->failures != 0) {
      out.problems.push_back("fleet failures=" + std::to_string(fleet->failures));
    }

    // Boot tasks have no retries or faults here, so each task-done offset is
    // that VM's virtual monitor-start-to-init time.
    std::vector<double> to_init_ms;
    for (const telemetry::Event& event : journal.Snapshot(false)) {
      if (event.source == "fleet" && event.type == "task-done") {
        to_init_ms.push_back(ToMillis(event.at));
      }
    }
    out.virtual_metrics["fleet.virtual_makespan_ms"] = ToMillis(fleet->virtual_makespan);
    out.virtual_metrics["boot.to_init_ms_p50"] = Percentile(to_init_ms, 0.5);

    char figures[256];
    std::snprintf(figures, sizeof(figures),
                  "boots=%zu failures=%zu makespan=%lld boot_total=%lld resident_peak=%lld "
                  "resident_sum=%lld\n",
                  fleet->boots, fleet->failures,
                  static_cast<long long>(fleet->virtual_makespan),
                  static_cast<long long>(fleet->virtual_boot_total),
                  static_cast<long long>(fleet->fleet_resident_peak),
                  static_cast<long long>(fleet->fleet_resident_sum));
    out.digest = Fnv1a(figures + journal.ExportJsonl(false));

    const auto snapshot = last_.registry->Collect();
    KernelCacheLayers(snapshot, out);
    const core::KernelCache::Stats stats = last_.cache->stats();
    out.layers["kbuild.builds"] += static_cast<double>(stats.builds);
    out.layers["apps.rootfs_builds"] +=
        static_cast<double>(last_.cache->rootfs_stats().builds);
    out.layers["util.sched_steals"] += static_cast<double>(fleet->steals);
    return out;
  }

  // Launch + Boot of each distinct app's artifact, served warm from the
  // iteration's cache: the vmm cost of one boot without the fleet around it.
  void Probe(HostTrace& trace) override {
    const std::set<std::string> distinct(last_.apps.begin(), last_.apps.end());
    for (const std::string& app : distinct) {
      auto artifact = last_.cache->GetOrBuild(app);
      if (!artifact.ok()) {
        continue;
      }
      HostTrace::Scope span(&trace, "vmm.LaunchBoot");
      std::unique_ptr<vmm::Vm> vm = (*artifact)->Launch();
      (void)vm->Boot();
    }
  }

 private:
  struct Last {
    std::unique_ptr<telemetry::MetricRegistry> registry;
    std::unique_ptr<core::KernelCache> cache;
    std::vector<std::string> apps;
  };
  Config config_;
  std::vector<std::vector<std::string>> draws_;
  Last last_;
};

// --- guest-exec ------------------------------------------------------------
// Every committed scenario spec, parsed and interpreted in booted guests on
// one host worker: fiber switches, guest scheduling and syscall dispatch
// dominate, and no KernelCache is involved.
class GuestExec : public Workload {
 public:
  GuestExec(uint64_t seed, const Config& config, std::vector<std::string> texts)
      : workers_(config.workers),
        seeds_(InputSeeds(seed, kInputs)),
        texts_(std::move(texts)) {}

  IterationResult Run(size_t input, HostTrace& trace) override {
    IterationResult out;
    specs_.clear();
    std::string canonical;
    double virtual_syscall_ns = 0;
    for (const std::string& text : texts_) {
      ++out.ops;
      Result<loadspec::ScenarioSpec> spec = Status(Err::kInval, "not run");
      {
        HostTrace::Scope span(&trace, "loadspec.ParseScenario");
        spec = loadspec::ParseScenario(text);
      }
      if (!spec.ok()) {
        out.problems.push_back("ParseScenario: " + spec.status().ToString());
        ++out.ops_failed;
        continue;
      }
      telemetry::MetricRegistry registry;
      telemetry::Journal journal;
      loadspec::ScenarioOptions options;
      options.workers = workers_;
      options.has_seed_override = true;
      options.seed_override = seeds_[input];
      options.journal = &journal;
      options.metrics = &registry;
      Result<loadspec::ScenarioResult> run = Status(Err::kInval, "not run");
      {
        HostTrace::Scope span(&trace, "loadspec.RunScenario");
        run = loadspec::RunScenario(*spec, options);
      }
      if (!run.ok()) {
        out.problems.push_back(spec->name + ": " + run.status().ToString());
        ++out.ops_failed;
        continue;
      }
      for (const std::string& failure : run->failures) {
        out.problems.push_back(spec->name + ": expect failed: " + failure);
      }
      if (run->blocked != 0) {
        out.problems.push_back(spec->name + ": blocked=" + std::to_string(run->blocked));
      }
      if (!run->ok() || run->blocked != 0) {
        ++out.ops_failed;
      }
      canonical += run->CanonicalFiguresInput();
      canonical += journal.ExportJsonl(false);
      ExportArtifacts(trace, registry, journal, {}, {}, out);

      out.layers["loadspec.iterations"] += static_cast<double>(run->total_iterations);
      out.layers["guestos.blocked"] += static_cast<double>(run->blocked);
      for (const loadspec::VmRunResult& vm : run->vms) {
        out.units += static_cast<double>(vm.syscalls);
        for (const auto& [name, stat] : vm.syscall_stats) {
          out.layers["guestos.syscalls." + name] += static_cast<double>(stat.count);
          virtual_syscall_ns += static_cast<double>(stat.total_ns);
        }
      }
      specs_.push_back(spec.take());
    }
    out.layers["guestos.syscalls"] += out.units;
    out.virtual_metrics["guest.virtual_ns_per_syscall"] =
        out.units > 0 ? virtual_syscall_ns / out.units : 0.0;
    out.digest = Fnv1a(canonical);
    return out;
  }

  // MakeVm + Boot of every VM entry, as the interpreter does it before any
  // scenario work: the per-VM set-up cost inside RunScenario.
  void Probe(HostTrace& trace) override {
    for (const loadspec::ScenarioSpec& spec : specs_) {
      for (const loadspec::VmEntrySpec& entry : spec.vms) {
        auto variant = VariantFor(entry.variant);
        if (!variant.ok()) {
          continue;
        }
        HostTrace::Scope span(&trace, "unikernels.MakeVmBoot");
        unikernels::LinuxSystem system(*variant);
        auto vm = system.MakeVm(entry.app, entry.memory, /*bench_rootfs=*/true);
        if (vm.ok()) {
          (void)(*vm)->Boot();
        }
      }
    }
  }

 private:
  // The interpreter's variant names, which loadspec does not export.
  static Result<unikernels::LinuxVariantSpec> VariantFor(const std::string& name) {
    if (name == "microvm") return unikernels::MicrovmSpec();
    if (name == "lupine") return unikernels::LupineSpec();
    if (name == "lupine-nokml") return unikernels::LupineNokmlSpec();
    if (name == "lupine-tiny") return unikernels::LupineTinySpec();
    if (name == "lupine-nokml-tiny") return unikernels::LupineNokmlTinySpec();
    if (name == "lupine-general") return unikernels::LupineGeneralSpec();
    if (name == "lupine-general-nokml") return unikernels::LupineGeneralNokmlSpec();
    return Status(Err::kInval, "unknown variant " + name);
  }

  size_t workers_;
  std::vector<uint64_t> seeds_;
  std::vector<std::string> texts_;
  std::vector<loadspec::ScenarioSpec> specs_;  // Parsed by the last Run().
};

// --- serve-restore ---------------------------------------------------------
// Snapshot serving of the nginx/redis/postgres mix at twice the base rate:
// the KernelCache is warm (every lookup hits), each iteration starts from an
// empty SnapshotCache, and the planned requests execute on the real
// subsystems (Vm::Restore, WarmPool).
class ServeRestore : public Workload {
 public:
  ServeRestore(uint64_t seed, const Config& config)
      : config_(config), seeds_(InputSeeds(seed, kInputs)) {
    for (const serve::TenantSpec& tenant : Tenants()) {
      (void)cache_.GetOrBuild(tenant.app);
    }
  }

  IterationResult Run(size_t input, HostTrace& trace) override {
    IterationResult out;
    last_snapshots_.reset();  // Before the registry it publishes into.
    last_registry_ = std::make_unique<telemetry::MetricRegistry>();
    last_snapshots_ = std::make_unique<core::SnapshotCache>();
    telemetry::Journal journal;
    cache_.set_metrics(last_registry_.get());
    cache_.set_journal(&journal);
    last_snapshots_->set_metrics(last_registry_.get());
    last_snapshots_->set_journal(&journal);
    const core::KernelCache::Stats before = cache_.stats();
    const size_t rootfs_before = cache_.rootfs_stats().builds;

    serve::ServeOptions options;
    options.tenants = Tenants();
    // 480 requests/s for 2.5 s: over 1,000 requests, so the p99 has at
    // least ten samples beyond it.
    options.duration = Millis(2500);
    options.seed = seeds_[input];
    options.workers = config_.workers;
    options.execute = true;
    options.metrics = last_registry_.get();
    options.journal = &journal;
    Result<serve::ServeResult> served = Status(Err::kInval, "not run");
    {
      HostTrace::Scope span(&trace, "serve.RunServing");
      served = serve::RunServing(cache_, *last_snapshots_, options);
    }
    // The journal dies with this call.
    cache_.set_journal(nullptr);
    last_snapshots_->set_journal(nullptr);
    if (!served.ok()) {
      out.problems.push_back("RunServing: " + served.status().ToString());
      out.ops = 1;
      out.ops_failed = 1;
      return out;
    }
    ExportArtifacts(trace, *last_registry_, journal, {}, served->counter_tracks, out);

    const serve::ServeResult& r = *served;
    out.ops = r.requests;
    out.ops_failed = r.restore_failures + r.exec_divergence;
    out.units = static_cast<double>(r.requests);
    if (r.restore_failures != 0 || r.exec_divergence != 0) {
      out.problems.push_back("restore_failures=" + std::to_string(r.restore_failures) +
                             " exec_divergence=" + std::to_string(r.exec_divergence));
    }
    if (r.requests < 1000) {
      out.problems.push_back("only " + std::to_string(r.requests) + " requests");
    }
    out.virtual_metrics["serve.ttfr_ms_p50"] = ToMillis(r.ttfr_p50);
    out.virtual_metrics["serve.ttfr_ms_p99"] = ToMillis(r.ttfr_p99);
    out.digest = Fnv1a(FiguresDigestInput(r, journal));

    const auto snapshot = last_registry_->Collect();
    KernelCacheLayers(snapshot, out);
    const core::KernelCache::Stats after = cache_.stats();
    out.layers["kbuild.builds"] += static_cast<double>(after.builds - before.builds);
    out.layers["apps.rootfs_builds"] +=
        static_cast<double>(cache_.rootfs_stats().builds - rootfs_before);
    const core::SnapshotCache::Stats snap = last_snapshots_->stats();
    out.layers["core.snapshot_hits"] += static_cast<double>(snap.hits);
    out.layers["core.snapshot_lookups"] += static_cast<double>(snap.hits + snap.misses);
    out.layers["util.sched_steals"] += static_cast<double>(r.steals);
    out.layers["serve.requests"] += static_cast<double>(r.requests);
    out.layers["serve.warm_hits"] += static_cast<double>(r.warm_hits);
    out.layers["serve.restores"] += static_cast<double>(r.restores);
    out.layers["serve.cold_boots"] += static_cast<double>(r.cold_boots);
    out.layers["serve.refills"] += static_cast<double>(r.refills);
    out.layers["serve.queue_waits"] += static_cast<double>(r.queue_waits);
    out.layers["serve.exec_divergence"] += static_cast<double>(r.exec_divergence);
    return out;
  }

  // Vm::Restore of each tenant's stored snapshot: the vmm cost of one
  // restore without the serving plan around it.
  void Probe(HostTrace& trace) override {
    serve::ServeOptions defaults;
    for (const serve::TenantSpec& tenant : Tenants()) {
      auto artifact = cache_.GetOrBuild(tenant.app);
      if (!artifact.ok()) {
        continue;
      }
      const std::string key = core::SnapshotCache::Key(
          (*artifact)->fingerprint, (*artifact)->rootfs_key, defaults.memory);
      core::SnapshotCache::SnapshotPtr snapshot = last_snapshots_->Find(key);
      if (snapshot == nullptr) {
        continue;
      }
      HostTrace::Scope span(&trace, "vmm.Restore");
      (void)vmm::Vm::Restore(*snapshot);
    }
  }

 private:
  static std::vector<serve::TenantSpec> Tenants() {
    return {{"nginx", 240.0}, {"redis", 160.0}, {"postgres", 80.0}};
  }

  // The serving figures, every request record and the canonical journal, in
  // the same form bench/ext_serving hashes for its worker byte-identity leg.
  static std::string FiguresDigestInput(const serve::ServeResult& result,
                                        const telemetry::Journal& journal) {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "requests=%zu warm=%zu restore=%zu cold=%zu captures=%zu refills=%zu "
                  "fail=%zu waits=%zu drops=%zu poison=%zu denials=%zu probes=%zu "
                  "p50=%lld p99=%lld max=%lld qp99=%lld end=%lld\n",
                  result.requests, result.warm_hits, result.restores, result.cold_boots,
                  result.captures, result.refills, result.restore_failures,
                  result.queue_waits, result.quarantine_drops, result.quarantine_poisoned,
                  result.quarantine_denials, result.probes,
                  static_cast<long long>(result.ttfr_p50),
                  static_cast<long long>(result.ttfr_p99),
                  static_cast<long long>(result.ttfr_max),
                  static_cast<long long>(result.queue_wait_p99),
                  static_cast<long long>(result.virtual_end));
    out += line;
    for (const serve::RequestRecord& rec : result.records) {
      std::snprintf(line, sizeof(line), "%zu %s %lld %lld %lld %s\n", rec.index,
                    rec.app.c_str(), static_cast<long long>(rec.arrival),
                    static_cast<long long>(rec.dispatch), static_cast<long long>(rec.ttfr),
                    rec.path);
      out += line;
    }
    out += journal.ExportJsonl(false);
    return out;
  }

  Config config_;
  std::vector<uint64_t> seeds_;
  core::KernelCache cache_;
  std::unique_ptr<telemetry::MetricRegistry> last_registry_;
  std::unique_ptr<core::SnapshotCache> last_snapshots_;
};

Result<std::vector<std::string>> ReadScenarioTexts(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec || paths.empty()) {
    return Status(Err::kNoEnt, "no scenario specs under " + dir);
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!in) {
      return Status(Err::kIo, "cannot read " + path);
    }
    texts.push_back(buffer.str());
  }
  return texts;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fleet-cold", "guest-exec",
                                                 "serve-restore"};
  return names;
}

Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name, uint64_t seed,
                                               const Config& config) {
  if (name == "fleet-cold") {
    return std::unique_ptr<Workload>(new FleetCold(seed, config));
  }
  if (name == "guest-exec") {
    auto texts = ReadScenarioTexts(config.scenario_dir);
    if (!texts.ok()) {
      return texts.status();
    }
    return std::unique_ptr<Workload>(new GuestExec(seed, config, texts.take()));
  }
  if (name == "serve-restore") {
    return std::unique_ptr<Workload>(new ServeRestore(seed, config));
  }
  return Status(Err::kInval, "unknown workload " + name);
}

}  // namespace perfbench
