// Byte-identity goldens for everything that orders option names: the
// KernelCache content address (ConfigFingerprint), Config::EnabledOptions()
// and the first violation Resolver::Validate reports. Fingerprints enter
// SnapshotCache keys and from there the journal digests, so they must never
// drift when the ordering machinery underneath changes.
//
// The pinned values were computed by the string-sorting implementation
// (names compared with operator< under the interner lock) that the rank
// snapshot replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/manifest.h"
#include "src/core/lupine.h"
#include "src/core/multik.h"
#include "src/kconfig/kconfig_lang.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"

namespace lupine::kconfig {
namespace {

uint64_t Fnv1a(uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

// The corpus: every Top-20 specialization the fleet fingerprints, then
// lupine-general, a -tiny config, a KML config and one holding =m and
// valued options (plus an "n" entry, which is not enabled).
std::vector<Config> GoldenConfigs() {
  std::vector<Config> configs;
  core::LupineBuilder builder;
  for (const auto& manifest : apps::Top20Manifests()) {
    auto config = builder.SpecializeConfig(manifest);
    EXPECT_TRUE(config.ok()) << manifest.name;
    configs.push_back(config.take());
  }
  configs.push_back(LupineGeneral());
  Config tiny = LupineBase();
  ApplyTiny(tiny);
  configs.push_back(tiny);
  Config kml = LupineBase();
  EXPECT_TRUE(ApplyKml(kml).ok());
  configs.push_back(kml);
  Config valued = LupineGeneral();
  valued.SetValue("MODULES", "y");
  valued.SetValue("EXT4_FS", "m");
  valued.SetValue("NR_CPUS", "4");
  valued.SetValue("PANIC_TIMEOUT", "-1");
  valued.SetValue("CMDLINE", "console=ttyS0 quiet");
  valued.SetValue("SWAP", "n");
  configs.push_back(valued);
  return configs;
}

TEST(NameOrderGoldenTest, FingerprintsAreByteIdentical) {
  std::vector<Config> configs = GoldenConfigs();
  ASSERT_EQ(configs.size(), 24u);
  uint64_t hash = kFnvBasis;
  for (const Config& config : configs) {
    hash = Fnv1a(hash, core::KernelCache::ConfigFingerprint(config) + "\n");
  }
  EXPECT_EQ(hash, 10960274396050801274ull);
  // Spot-check one content address verbatim.
  EXPECT_EQ(core::KernelCache::ConfigFingerprint(configs[20]), "6156995828842991438");
}

TEST(NameOrderGoldenTest, EnabledOptionListsAreByteIdentical) {
  std::vector<Config> configs = GoldenConfigs();
  uint64_t hash = kFnvBasis;
  size_t total = 0;
  for (const Config& config : configs) {
    std::vector<std::string> options = config.EnabledOptions();
    total += options.size();
    for (const std::string& option : options) {
      hash = Fnv1a(hash, option + "\n");
    }
    hash = Fnv1a(hash, "--\n");
  }
  EXPECT_EQ(total, 6979u);
  EXPECT_EQ(hash, 12902998742236525465ull);
}

// A tree whose ZZ_* options are interned before their AA_* counterparts, so
// id order and name order disagree: a validator walking ids would report the
// ZZ_* violation, the canonical one reports AA_*.
constexpr char kInvertedTree[] = R"(config ZZ_GOLDEN_BASE
	bool "zz base"

config ZZ_GOLDEN_NEEDS
	bool "zz needs its base"
	depends on ZZ_GOLDEN_BASE

config ZZ_GOLDEN_MOD
	tristate "zz module"

config ZZ_GOLDEN_CLASH
	bool "zz clash"
	conflicts AA_GOLDEN_CLASH

config AA_GOLDEN_BASE
	bool "aa base"

config AA_GOLDEN_NEEDS
	bool "aa needs its base"
	depends on AA_GOLDEN_BASE

config AA_GOLDEN_MOD
	tristate "aa module"

config AA_GOLDEN_CLASH
	bool "aa clash"
	conflicts ZZ_GOLDEN_CLASH

config MM_GOLDEN_OK
	bool "fine"
)";

class NameOrderValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Intern ZZ_* strictly before AA_* (the parser interns in text order;
    // this makes the precondition explicit for the unknown-option names too).
    auto& interner = OptionInterner::Global();
    for (const char* name : {"ZZ_GOLDEN_UNKNOWN", "ZZ_GOLDEN_BASE", "ZZ_GOLDEN_NEEDS",
                             "ZZ_GOLDEN_MOD", "ZZ_GOLDEN_CLASH", "AA_GOLDEN_UNKNOWN"}) {
      interner.Intern(name);
    }
    ASSERT_TRUE(ParseKconfig(kInvertedTree, {}, db_).ok());
    ASSERT_LT(interner.Find("ZZ_GOLDEN_NEEDS"), interner.Find("AA_GOLDEN_NEEDS"));
    ASSERT_LT(interner.Find("ZZ_GOLDEN_UNKNOWN"), interner.Find("AA_GOLDEN_UNKNOWN"));
  }

  std::string FirstViolation(const Config& config) const {
    Status status = Resolver(db_).Validate(config);
    return status.ok() ? "ok" : status.message();
  }

  OptionDb db_;
};

TEST_F(NameOrderValidateTest, UnknownOptionsReportTheSmallestName) {
  Config config;
  config.Enable("MM_GOLDEN_OK");
  config.Enable("ZZ_GOLDEN_UNKNOWN");
  config.Enable("AA_GOLDEN_UNKNOWN");
  EXPECT_EQ(FirstViolation(config),
            "unknown config option CONFIG_AA_GOLDEN_UNKNOWN");
}

TEST_F(NameOrderValidateTest, MissingDependenciesReportTheSmallestName) {
  Config config;
  config.Enable("ZZ_GOLDEN_NEEDS");
  config.Enable("AA_GOLDEN_NEEDS");
  config.Enable("MM_GOLDEN_OK");
  EXPECT_EQ(FirstViolation(config),
            "CONFIG_AA_GOLDEN_NEEDS requires CONFIG_AA_GOLDEN_BASE which is not enabled");
}

TEST_F(NameOrderValidateTest, MixedViolationsFollowNameOrder) {
  Config config;
  config.SetValue("ZZ_GOLDEN_MOD", "m");     // =m without MODULES.
  config.Enable("ZZ_GOLDEN_NEEDS");          // Missing ZZ_GOLDEN_BASE.
  config.SetValue("AA_GOLDEN_MOD", "m");     // Reported: AA sorts first.
  config.Enable("MM_GOLDEN_OK");
  EXPECT_EQ(FirstViolation(config),
            "CONFIG_AA_GOLDEN_MOD=m requires CONFIG_MODULES (loadable module support)");
  config.Disable("AA_GOLDEN_MOD");
  config.Enable("AA_GOLDEN_BASE");
  config.Enable("AA_GOLDEN_NEEDS");
  config.Enable("AA_GOLDEN_UNKNOWN");  // Now the smallest name.
  EXPECT_EQ(FirstViolation(config),
            "unknown config option CONFIG_AA_GOLDEN_UNKNOWN");
}

TEST_F(NameOrderValidateTest, ConflictsReportTheSmallestName) {
  Config config;
  config.Enable("ZZ_GOLDEN_CLASH");
  config.Enable("AA_GOLDEN_CLASH");
  EXPECT_EQ(FirstViolation(config),
            "CONFIG_AA_GOLDEN_CLASH conflicts with enabled CONFIG_ZZ_GOLDEN_CLASH");
}

TEST(NameOrderGoldenTest, LinuxTreeViolationsAreByteIdentical) {
  const Resolver resolver(OptionDb::Linux40());
  Config config = LupineBase();
  config.Enable("ZZ_GOLDEN_UNKNOWN");
  config.SetValue("UNIX", "m");   // MODULES is off in lupine-base.
  config.SetValue("TMPFS", "m");
  EXPECT_EQ(resolver.Validate(config).message(),
            "CONFIG_TMPFS=m requires CONFIG_MODULES (loadable module support)");
  Config kml = LupineBase();
  kml.Enable("KERNEL_MODE_LINUX");  // Unpatched tree.
  kml.Disable("PARAVIRT");
  EXPECT_EQ(resolver.Validate(kml).message(),
            "CONFIG_KERNEL_MODE_LINUX enabled without the KML patch");
}

// Readers order names through whatever snapshot is published while another
// thread keeps interning names that sort between theirs, forcing snapshot
// merges mid-flight. Every result must equal its serial recomputation.
TEST(InternerNameOrderStorm, ConcurrentMergesKeepEveryOrderCanonical) {
  const Resolver resolver(OptionDb::Linux40());
  std::vector<Config> configs = GoldenConfigs();
  Config broken = LupineBase();
  broken.Enable("ZZ_STORM_UNKNOWN");
  broken.SetValue("UNIX", "m");
  configs.push_back(broken);
  std::vector<std::string> fingerprints;
  std::vector<std::string> verdicts;
  std::vector<std::vector<std::string>> option_lists;
  for (const Config& config : configs) {
    fingerprints.push_back(core::KernelCache::ConfigFingerprint(config));
    verdicts.push_back(resolver.Validate(config).message());
    option_lists.push_back(config.EnabledOptions());
  }

  constexpr int kReaders = 4;
  constexpr int kRounds = 6;
  constexpr int kFreshNames = 120;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < configs.size(); ++i) {
          const size_t c = (i + t) % configs.size();
          if (core::KernelCache::ConfigFingerprint(configs[c]) != fingerprints[c] ||
              resolver.Validate(configs[c]).message() != verdicts[c] ||
              configs[c].EnabledOptions() != option_lists[c]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::vector<std::string> fresh_names;
  threads.emplace_back([&] {
    // Fresh names spread over the alphabet so each merge lands between
    // already-ranked names, not only at the end.
    Config own("storm");
    for (int i = 0; i < kFreshNames; ++i) {
      std::string name = std::string(1, static_cast<char>('A' + (i * 7) % 26)) + "_STORM_" +
                         std::to_string(i);
      own.Enable(name);
      fresh_names.push_back(std::move(name));
      std::vector<std::string> expected = fresh_names;
      std::sort(expected.begin(), expected.end());
      if (own.EnabledOptions() != expected) {
        mismatches.fetch_add(1);
      }
    }
  });
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  for (size_t c = 0; c < configs.size(); ++c) {
    EXPECT_EQ(core::KernelCache::ConfigFingerprint(configs[c]), fingerprints[c]) << c;
    EXPECT_EQ(resolver.Validate(configs[c]).message(), verdicts[c]) << c;
  }
}

}  // namespace
}  // namespace lupine::kconfig
