#include "src/core/multik.h"

#include <chrono>
#include <functional>
#include <sstream>
#include <utility>

#include "src/apps/builtin.h"
#include "src/apps/init_script.h"
#include "src/kbuild/builder.h"

namespace lupine::core {
namespace {

// Distinguishes per-call BuildOptions in the artifact key so the same app
// built with different knobs never aliases one cache entry.
std::string OptionsKey(const BuildOptions& options) {
  std::ostringstream key;
  key << options.kml << options.tiny << options.general_config << options.batch_general
      << ';' << options.panic_timeout << ';';
  for (const auto& option : options.extra_options) {
    key << option << ',';
  }
  return key.str();
}

}  // namespace

std::unique_ptr<vmm::Vm> KernelCache::AppArtifact::Launch(Bytes memory,
                                                          FaultInjector* faults) const {
  vmm::VmSpec spec;
  spec.monitor = vmm::Firecracker();
  spec.image = *kernel;
  spec.rootfs = *rootfs;
  spec.memory = memory;
  spec.faults = faults;
  spec.boot_plan = boot_plan;
  return std::make_unique<vmm::Vm>(std::move(spec));
}

std::string KernelCache::ConfigFingerprint(const kconfig::Config& config) {
  // Canonical text: name-sorted option=value pairs + build knobs.
  // (Config::name deliberately excluded — two differently named but
  // identical configs produce identical kernels.)
  std::vector<const std::string*> names;
  const std::vector<kconfig::OptionId> ids = config.EnabledIdsByName(&names);
  std::string key;
  for (size_t i = 0; i < ids.size(); ++i) {
    key += *names[i];
    key += '=';
    key += config.ValueOfId(ids[i]);
    key += ';';
  }
  key += config.compile_mode() == kconfig::CompileMode::kOs ? "mode=Os" : "mode=O2";
  key += config.kml_patch_applied() ? ";kml=1" : ";kml=0";
  // Content address: a stable hash over the canonical text.
  return std::to_string(std::hash<std::string>{}(key));
}

Result<KernelCache::ArtifactPtr> KernelCache::GetOrBuild(const std::string& app) {
  return GetOrBuildKeyed(app, app, options_);
}

Result<KernelCache::ArtifactPtr> KernelCache::GetOrBuild(const std::string& app,
                                                         const BuildOptions& options) {
  return GetOrBuildKeyed(app + '\x1f' + OptionsKey(options), app, options);
}

Result<KernelCache::ArtifactPtr> KernelCache::GetOrBuildKeyed(const std::string& key,
                                                              const std::string& app,
                                                              const BuildOptions& options) {
  std::unique_lock lock(mu_);
  ++requests_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("kernelcache.requests").Increment();
  }

  // Quarantine gate: a poisoned key fails fast instead of handing a known-bad
  // artifact to yet another worker. Past the TTL the poison clears and this
  // very request becomes the probe rebuild.
  if (quarantine_policy_.enabled) {
    auto health = quarantine_.find(key);
    if (health != quarantine_.end() && health->second.poisoned_until >= 0) {
      if (QuarantineNowLocked() < health->second.poisoned_until) {
        ++quarantine_denials_;
        if (metrics_ != nullptr) {
          metrics_->GetCounter("kernelcache.quarantine_denials").Increment();
        }
        EmitJournal("quarantine-denial", app);
        return Status(Err::kAccess, "quarantined: " + app +
                                        " kept failing after a rebuild; poisoned until TTL");
      }
      // TTL expired: half-open. Grant one fresh rebuild cycle.
      health->second = LaunchHealth{};
      EmitJournal("half-open", app);
    }
  }

  // Fast path / single-flight entry: either the artifact exists, another
  // thread is building it (wait), or we claim the flight.
  std::shared_ptr<Flight> app_flight;
  for (;;) {
    auto cached = apps_.find(key);
    if (cached != apps_.end()) {
      artifact_lru_.Touch(key);
      if (metrics_ != nullptr) {
        metrics_->GetCounter("kernelcache.app_hits").Increment();
      }
      EmitJournal("hit", app);
      return cached->second;
    }
    auto flying = app_flights_.find(key);
    if (flying == app_flights_.end()) {
      app_flight = std::make_shared<Flight>();
      app_flights_.emplace(key, app_flight);
      EmitJournal("miss", app);
      break;
    }
    std::shared_ptr<Flight> flight = flying->second;
    cv_.wait(lock, [&] { return flight->done; });
    if (!flight->status.ok()) {
      return flight->status;
    }
    if (metrics_ != nullptr) {
      metrics_->GetCounter("kernelcache.app_hits").Increment();
    }
    EmitJournal("hit", app);
    return flight->artifact;
  }

  // We own the flight for `key`. Resolve it with `status` on every error
  // path; the entry is erased so later calls retry (no negative caching).
  auto fail = [&](Status status) -> Status {
    app_flight->done = true;
    app_flight->status = status;
    app_flights_.erase(key);
    cv_.notify_all();
    return status;
  };

  lock.unlock();
  // This flight's host-wall provisioning timeline: specialize/resolve from
  // SpecializeConfig, `build` only when this flight really built the kernel,
  // `load-rootfs` below. Rides on the artifact for bench exemplars.
  auto provisioning = std::make_shared<telemetry::SpanTrace>();
  auto specialized = SpecializeForApp(app, options, provisioning.get());
  if (!specialized.ok()) {
    lock.lock();
    return fail(specialized.status());
  }
  Specialization spec = specialized.take();
  if (metrics_ != nullptr) {
    for (const char* stage : {"specialize", "resolve"}) {
      if (const telemetry::Span* span = provisioning->Find(stage)) {
        metrics_->GetHistogram("build.stage_ns", {{"stage", stage}})
            .Observe(static_cast<double>(span->duration()));
      }
    }
  }

  // Kernel-level single-flight: apps whose configurations fingerprint
  // identically share one build even when requested concurrently.
  auto ensured = EnsureKernel(spec.config, spec.fingerprint, provisioning.get());
  if (!ensured.ok()) {
    lock.lock();
    return fail(ensured.status());
  }
  KernelEntry kernel = ensured.take();
  const bool general_kernel = spec.general_kernel;

  // Per-app artifact: the init script is per-app; the rootfs blob is shared
  // through the content-addressed rootfs cache.
  apps::ContainerImage image = apps::MakeAlpineImage(*spec.manifest);
  apps::RootfsOptions rootfs_options;
  rootfs_options.kml_libc = options.kml;
  auto artifact = std::make_shared<AppArtifact>();
  artifact->kernel = kernel.image;
  artifact->boot_plan = kernel.boot_plan;
  telemetry::HostStopwatch rootfs_watch;
  artifact->rootfs = rootfs_cache_.GetOrBuild(image, rootfs_options);
  const Nanos rootfs_ns = rootfs_watch.ElapsedNanos();
  provisioning->AddPhase("load-rootfs", rootfs_ns);
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("build.stage_ns", {{"stage", "load-rootfs"}})
        .Observe(static_cast<double>(rootfs_ns));
  }
  artifact->init_script = apps::GenerateInitScript(image);
  artifact->general_kernel = general_kernel;
  artifact->fingerprint = spec.fingerprint;
  artifact->rootfs_key = apps::RootfsCache::CacheKey(image, rootfs_options);
  artifact->provisioning = std::move(provisioning);
  ArtifactPtr result = std::move(artifact);

  lock.lock();
  app_kernel_bytes_[key] = kernel.image->size;
  if (general_kernel) {
    ++general_served_;
  }
  apps_.emplace(key, result);
  artifact_lru_.Insert(key, result->rootfs->size() + result->init_script.size());
  EvictLocked();  // `result` pins the new artifact.
  app_flight->artifact = result;
  app_flight->done = true;
  app_flights_.erase(key);
  cv_.notify_all();
  return result;
}

Result<KernelCache::Specialization> KernelCache::SpecializeForApp(
    const std::string& app, const BuildOptions& options,
    telemetry::SpanTrace* provisioning) {
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (manifest == nullptr) {
    return Status(Err::kNoEnt, "no manifest for application " + app);
  }
  auto specialized = builder_.SpecializeConfig(*manifest, options, provisioning);
  if (!specialized.ok()) {
    return specialized.status();
  }
  Specialization spec;
  spec.manifest = manifest;
  spec.config = specialized.take();
  // Cross-build batching: prove the per-app configuration is a subset of
  // lupine-general and, if so, build/serve the shared general kernel
  // instead. The proof is per-app — an extra option outside the general
  // union falls back to the specialized build.
  if (options.batch_general && !options.general_config) {
    BuildOptions general_options = options;
    general_options.general_config = true;
    general_options.batch_general = false;
    general_options.extra_options.clear();
    auto general = builder_.SpecializeConfig(*manifest, general_options);
    if (general.ok() && spec.config.IsSubsetOf(general.value())) {
      spec.config = general.take();
      spec.general_kernel = true;
    }
  }
  spec.fingerprint = ConfigFingerprint(spec.config);
  return spec;
}

Result<KernelCache::KernelEntry> KernelCache::EnsureKernel(
    const kconfig::Config& config, const std::string& fingerprint,
    telemetry::SpanTrace* provisioning) {
  std::unique_lock lock(mu_);
  for (;;) {
    auto hit = kernels_.find(fingerprint);
    if (hit != kernels_.end()) {
      kernel_lru_.Touch(fingerprint);
      return hit->second;
    }
    auto flying = kernel_flights_.find(fingerprint);
    if (flying != kernel_flights_.end()) {
      std::shared_ptr<KernelFlight> flight = flying->second;
      cv_.wait(lock, [&] { return flight->done; });
      if (!flight->status.ok()) {
        return flight->status;
      }
      return flight->entry;
    }
    auto kernel_flight = std::make_shared<KernelFlight>();
    kernel_flights_.emplace(fingerprint, kernel_flight);
    lock.unlock();
    telemetry::HostStopwatch build_watch;
    kbuild::ImageBuilder image_builder;
    auto built = image_builder.Build(config);
    const Nanos build_ns = build_watch.ElapsedNanos();
    lock.lock();
    kernel_flight->done = true;
    if (!built.ok()) {
      kernel_flight->status = built.status();
      kernel_flights_.erase(fingerprint);
      cv_.notify_all();
      return built.status();
    }
    ++builds_;
    if (provisioning != nullptr) {
      provisioning->AddPhase("build", build_ns);
    }
    if (metrics_ != nullptr) {
      metrics_->GetCounter("kernelcache.builds").Increment();
      metrics_->GetHistogram("build.stage_ns", {{"stage", "build"}})
          .Observe(static_cast<double>(build_ns));
    }
    KernelEntry entry;
    entry.image = std::make_shared<const kbuild::KernelImage>(built.take());
    // The boot plan is the point of the per-image precompute: derived once
    // here, reused by every VM that ever boots this image.
    entry.boot_plan =
        std::make_shared<const guestos::BootPlan>(guestos::ComputeBootPlan(*entry.image));
    kernels_.emplace(fingerprint, entry);
    kernel_lru_.Insert(fingerprint, entry.image->size);
    EvictLocked();  // Our local reference pins the new image.
    kernel_flight->entry = entry;
    kernel_flights_.erase(fingerprint);
    cv_.notify_all();
    return entry;
  }
}

Result<KernelCache::ProvisionPlan> KernelCache::PlanProvisioning(const std::string& app) {
  auto specialized = SpecializeForApp(app, options_, nullptr);
  if (!specialized.ok()) {
    return specialized.status();
  }
  Specialization spec = specialized.take();
  ProvisionPlan plan;
  plan.app = app;
  plan.fingerprint = spec.fingerprint;
  apps::RootfsOptions rootfs_options;
  rootfs_options.kml_libc = options_.kml;
  const apps::ContainerImage image = apps::MakeAlpineImage(*spec.manifest);
  plan.rootfs_key = apps::RootfsCache::CacheKey(image, rootfs_options);
  plan.rootfs_cached = rootfs_cache_.Contains(image, rootfs_options);
  {
    std::lock_guard lock(mu_);
    plan.kernel_cached = kernels_.count(spec.fingerprint) > 0;
  }
  plan.kernel_cost =
      provision_costs_.kernel_base +
      provision_costs_.kernel_per_option *
          static_cast<Nanos>(spec.config.EnabledCount());
  plan.rootfs_cost = provision_costs_.rootfs;
  return plan;
}

Status KernelCache::PrewarmKernel(const std::string& app) {
  auto specialized = SpecializeForApp(app, options_, nullptr);
  if (!specialized.ok()) {
    return specialized.status();
  }
  Specialization spec = specialized.take();
  auto ensured = EnsureKernel(spec.config, spec.fingerprint, nullptr);
  return ensured.ok() ? Status::Ok() : ensured.status();
}

Status KernelCache::PrewarmRootfs(const std::string& app) {
  const apps::AppManifest* manifest = apps::FindManifest(app);
  if (manifest == nullptr) {
    return Status(Err::kNoEnt, "no manifest for application " + app);
  }
  apps::RootfsOptions rootfs_options;
  rootfs_options.kml_libc = options_.kml;
  (void)rootfs_cache_.GetOrBuild(apps::MakeAlpineImage(*manifest), rootfs_options);
  return Status::Ok();
}

Nanos KernelCache::QuarantineNowLocked() {
  if (quarantine_now_) {
    return quarantine_now_();
  }
  // Host steady clock since the process started: TTLs tick in real time by
  // default; tests inject a manual source for deterministic expiry.
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void KernelCache::DropForRebuildLocked(const std::string& app) {
  artifact_lru_.Erase(app);
  apps_.erase(app);
  // The rootfs blob is keyed by content, not by app: drop it too, or the
  // "rebuild" would be served the identical cached bytes. The shared kernel
  // image stays — other apps' successful boots exonerate it, and a per-app
  // config that really miscompiles rebuilds through the artifact path anyway.
  if (const apps::AppManifest* manifest = apps::FindManifest(app); manifest != nullptr) {
    apps::RootfsOptions rootfs_options;
    rootfs_options.kml_libc = options_.kml;
    (void)rootfs_cache_.Invalidate(apps::MakeAlpineImage(*manifest), rootfs_options);
  }
}

void KernelCache::ReportLaunchFailure(const std::string& app) {
  std::lock_guard lock(mu_);
  if (!quarantine_policy_.enabled) {
    return;
  }
  ++quarantine_failures_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("kernelcache.quarantine_failures").Increment();
  }
  LaunchHealth& health = quarantine_[app];
  if (health.poisoned_until >= 0) {
    return;  // Already poisoned; stragglers mid-flight change nothing.
  }
  if (++health.failures < quarantine_policy_.failures_per_strike) {
    return;
  }
  health.failures = 0;
  if (health.rebuilds < quarantine_policy_.rebuild_limit) {
    // Strike one: rebuild-once. Drop the artifact and its rootfs blob so the
    // next GetOrBuild builds from scratch instead of re-serving the suspect.
    ++health.rebuilds;
    ++quarantine_rebuilds_;
    DropForRebuildLocked(app);
    if (metrics_ != nullptr) {
      metrics_->GetCounter("kernelcache.quarantine_rebuilds").Increment();
    }
    EmitJournal("quarantine-rebuild", app);
    return;
  }
  // The rebuild failed too: poison. One bad blob must not crash-loop
  // rounds x workers VMs — every GetOrBuild until the TTL fails fast.
  health.poisoned_until = QuarantineNowLocked() + quarantine_policy_.poison_ttl;
  ++quarantine_poisoned_;
  DropForRebuildLocked(app);
  if (metrics_ != nullptr) {
    metrics_->GetCounter("kernelcache.quarantine_poisoned").Increment();
  }
  EmitJournal("poison", app);
}

void KernelCache::set_journal(telemetry::Journal* journal) {
  std::lock_guard lock(mu_);
  journal_ = journal;
  rootfs_cache_.set_journal(journal);
}

void KernelCache::EmitJournal(const char* type, const std::string& app) const {
  if (journal_ == nullptr) {
    return;
  }
  telemetry::Event event;
  event.source = "kernel-cache";
  event.type = type;
  event.schedule_scoped = true;  // Cache interleaving is host-timing bound.
  event.fields = {{"app", telemetry::FieldValue{app}}};
  journal_->Emit(std::move(event));
}

void KernelCache::set_quarantine(QuarantinePolicy policy) {
  std::lock_guard lock(mu_);
  quarantine_policy_ = policy;
}

void KernelCache::set_quarantine_clock(std::function<Nanos()> now) {
  std::lock_guard lock(mu_);
  quarantine_now_ = std::move(now);
}

void KernelCache::EvictLocked() {
  // Artifacts first: each artifact pins its kernel image, so dropping stale
  // artifacts is what makes stale kernels evictable at all.
  artifact_evictions_ += artifact_lru_.EvictOver(
      artifact_budget_,
      [&](const std::string& key) { return apps_.at(key).use_count() > 1; },
      [&](const std::string& key, Bytes) {
        EmitJournal("evict", key);
        apps_.erase(key);
      });
  kernel_evictions_ += kernel_lru_.EvictOver(
      kernel_budget_,
      [&](const std::string& fingerprint) {
        return kernels_.at(fingerprint).image.use_count() > 1;
      },
      [&](const std::string& fingerprint, Bytes bytes) {
        bytes_evicted_ += bytes;
        EmitJournal("evict-kernel", fingerprint);
        kernels_.erase(fingerprint);
      });
}

void KernelCache::set_budgets(CacheBudget artifact_budget, CacheBudget kernel_budget) {
  std::lock_guard lock(mu_);
  artifact_budget_ = artifact_budget;
  kernel_budget_ = kernel_budget;
  EvictLocked();
}

KernelCache::Stats KernelCache::stats() const {
  std::lock_guard lock(mu_);
  Stats stats;
  stats.requests = requests_;
  stats.builds = builds_;
  stats.apps = app_kernel_bytes_.size();
  stats.distinct_kernels = kernels_.size();
  for (const auto& [key, kernel_bytes] : app_kernel_bytes_) {
    stats.bytes_if_unshared += kernel_bytes;
  }
  for (const auto& [fingerprint, entry] : kernels_) {
    stats.bytes_stored += entry.image->size;
    // Pinned = some caller still holds the image (the store's own reference
    // is the +1); eviction cannot reclaim these bytes.
    if (entry.image.use_count() > 1) {
      stats.kernel_bytes_pinned += entry.image->size;
    }
  }
  for (const auto& [key, artifact] : apps_) {
    if (artifact.use_count() > 1) {
      stats.artifact_bytes_pinned += artifact->rootfs->size() + artifact->init_script.size();
    }
  }
  stats.general_served = general_served_;
  stats.quarantine_failures = quarantine_failures_;
  stats.quarantine_rebuilds = quarantine_rebuilds_;
  stats.quarantine_poisoned = quarantine_poisoned_;
  stats.quarantine_denials = quarantine_denials_;
  stats.artifact_evictions = artifact_evictions_;
  stats.kernel_evictions = kernel_evictions_;
  stats.bytes_evicted = bytes_evicted_;
  return stats;
}

void KernelCache::PublishMetrics(telemetry::MetricRegistry& registry) const {
  const Stats s = stats();
  auto set = [&registry](const char* name, uint64_t value, telemetry::Labels labels = {}) {
    registry.GetGauge(name, std::move(labels)).Set(static_cast<int64_t>(value));
  };
  set("kernelcache.apps", s.apps);
  set("kernelcache.distinct_kernels", s.distinct_kernels);
  set("kernelcache.bytes_stored", s.bytes_stored);
  set("kernelcache.bytes_saved", s.bytes_saved());
  set("kernelcache.general_served", s.general_served);
  set("kernelcache.quarantine_failures", s.quarantine_failures);
  set("kernelcache.quarantine_rebuilds", s.quarantine_rebuilds);
  set("kernelcache.quarantine_poisoned", s.quarantine_poisoned);
  set("kernelcache.quarantine_denials", s.quarantine_denials);
  set("kernelcache.bytes_evicted", s.bytes_evicted);
  set("kernelcache.evictions", s.artifact_evictions, {{"tier", "artifact"}});
  set("kernelcache.evictions", s.kernel_evictions, {{"tier", "kernel"}});
  set("kernelcache.bytes_pinned", s.artifact_bytes_pinned, {{"tier", "artifact"}});
  set("kernelcache.bytes_pinned", s.kernel_bytes_pinned, {{"tier", "kernel"}});
  rootfs_cache_.PublishMetrics(registry);
}

}  // namespace lupine::core
