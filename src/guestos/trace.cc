#include "src/guestos/trace.h"

#include "src/telemetry/metrics.h"

namespace lupine::guestos {

void PublishSyscallMetrics(const TraceLog& trace, telemetry::MetricRegistry& registry,
                           const std::string& app, bool kml) {
  const std::string kml_label = kml ? "true" : "false";
  const auto& stats = trace.syscall_stats();
  for (size_t nr = 0; nr < stats.size(); ++nr) {
    const SyscallStat& stat = stats[nr];
    if (stat.count == 0) {
      continue;
    }
    const std::string name = kbuild::SyscallName(static_cast<kbuild::Sys>(nr));
    telemetry::Labels labels = {{"app", app}, {"kml", kml_label}, {"syscall", name}};
    registry.GetCounter("guest.syscall_count", labels).Increment(stat.count);

    auto& hist = registry.GetHistogram("guest.syscall_ns", labels);
    if (stat.count == 1) {
      hist.Observe(static_cast<double>(stat.total_ns));
      continue;
    }
    hist.Observe(static_cast<double>(stat.min_ns));
    hist.Observe(static_cast<double>(stat.max_ns));
    const uint64_t rest = stat.count - 2;
    if (rest > 0) {
      // The adjusted mean keeps the histogram's sum (hence mean) exact.
      const double body = static_cast<double>(stat.total_ns - stat.min_ns - stat.max_ns) /
                          static_cast<double>(rest);
      hist.ObserveRepeated(body, rest);
    }
  }
}

}  // namespace lupine::guestos
