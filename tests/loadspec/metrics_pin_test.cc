// Byte-identity of the guest syscall metrics a scenario run publishes.
//
// Every committed scenario spec runs with a metrics registry attached, and
// the registry's JSON export is hashed. The digest is pinned to the bytes of
// the straightforward publication (one Histogram::Observe per reconstructed
// sample, each quantile computed on its own sorted copy), so any change to
// the sample sequence a histogram sees, to its decimation or to the quantile
// arithmetic shows up here as a digest mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/loadspec/interpreter.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"

namespace lupine::loadspec {
namespace {

uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::vector<std::filesystem::path> CorpusPaths() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(LUPINE_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(SyscallMetricsPin, CorpusExportJsonDigest) {
  const std::vector<std::filesystem::path> paths = CorpusPaths();
  ASSERT_GE(paths.size(), 6u);
  uint64_t per_spec = 1469598103934665603ull;
  telemetry::MetricRegistry shared;
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();

    // One registry per spec (the perfbench guest-exec shape) ...
    telemetry::MetricRegistry registry;
    ScenarioOptions options;
    options.metrics = &registry;
    auto result = RunScenarioText(text.str(), options);
    ASSERT_TRUE(result.ok()) << path << ": " << result.status().ToString();
    per_spec = Fnv1a(per_spec, telemetry::ExportJson(registry));

    // ... and one registry for the whole corpus, so histograms of the same
    // (app, kml, syscall) accumulate across specs and cross the reservoir's
    // decimation boundary.
    ScenarioOptions shared_options;
    shared_options.metrics = &shared;
    ASSERT_TRUE(RunScenarioText(text.str(), shared_options).ok()) << path;
  }
  const std::string corpus = telemetry::ExportJson(shared);
  EXPECT_EQ(per_spec, 0xc1ca9364edafce6bull);
  EXPECT_EQ(Fnv1a(1469598103934665603ull, corpus), 0x43aa01b7230826abull);
  // The shared registry must hold at least one decimated histogram.
  size_t largest = 0;
  for (const auto& sample : shared.Collect().histograms) {
    largest = std::max(largest, sample.summary.count);
  }
  EXPECT_GT(largest, 2048u);
}

}  // namespace
}  // namespace lupine::loadspec
