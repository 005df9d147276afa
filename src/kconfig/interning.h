// Process-wide interning of configuration option names.
//
// Every option name that enters the system (database registration, Config
// mutation, .config parsing) is mapped to a dense integer OptionId. The hot
// paths — Config membership tests, dependency resolution, image sizing —
// operate on these ids with bitsets and vectors instead of hashing
// std::string keys at every step. Ids are process-global (not per-database),
// so a Config never needs to know which OptionDb its names came from, and
// ids are never reused or freed.
#ifndef SRC_KCONFIG_INTERNING_H_
#define SRC_KCONFIG_INTERNING_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lupine::kconfig {

using OptionId = uint32_t;
inline constexpr OptionId kNoOption = 0xFFFFFFFFu;

// An immutable lexicographic ranking of a subset of interned names: canonical
// orderings (fingerprints, validation, sorted name lists) compare 4-byte
// ranks instead of strings and read names without the interner lock. Ranks
// are only comparable within one snapshot.
class NameOrder {
 public:
  bool Ranks(OptionId id) const { return id < rank_.size() && rank_[id] != kUnranked; }
  // The id must be ranked here.
  uint32_t RankOf(OptionId id) const { return rank_[id]; }
  OptionId IdAt(uint32_t rank) const { return by_rank_[rank].id; }
  // Valid for the process lifetime, like OptionInterner::NameOf.
  const std::string& NameAt(uint32_t rank) const { return *by_rank_[rank].name; }

 private:
  friend class OptionInterner;
  static constexpr uint32_t kUnranked = 0xFFFFFFFFu;
  struct Entry {
    const std::string* name;
    OptionId id;
  };

  std::vector<uint32_t> rank_;  // By id; kUnranked when absent.
  std::vector<Entry> by_rank_;
};

// Thread-safe append-only string table. NameOf() references stay valid for
// the process lifetime (names live in a deque and are never removed).
class OptionInterner {
 public:
  static OptionInterner& Global();

  // Returns the id for `name`, assigning the next dense id on first sight.
  OptionId Intern(std::string_view name);

  // Returns the id for `name`, or kNoOption if it was never interned.
  // A name that was never interned cannot be present in any Config.
  OptionId Find(std::string_view name) const;

  // The name behind an id. The id must have been returned by Intern.
  const std::string& NameOf(OptionId id) const;

  size_t size() const;

  // A name-order snapshot that ranks every id in `ids` (each must have been
  // returned by Intern). The published snapshot is replaced only when asked
  // to cover an id it does not rank yet: the new ids are merged in, so only
  // names some caller ordered are ever ranked, and the steady state is one
  // shared lock with no string work.
  std::shared_ptr<const NameOrder> NameOrderCovering(const std::vector<OptionId>& ids);

 private:
  OptionInterner();

  mutable std::shared_mutex mu_;
  std::deque<std::string> names_;                      // Stable references.
  std::unordered_map<std::string_view, OptionId> ids_; // Views into names_.

  // Guards the name_order_ pointer; acquired before mu_, never after it.
  std::shared_mutex order_mu_;
  std::shared_ptr<const NameOrder> name_order_;
};

// Fixed-width bitset helpers shared by Config and the resolver (word = 64
// ids). Out-of-range ids read as 0; writes grow the vector.
namespace bits {

inline bool Test(const std::vector<uint64_t>& words, OptionId id) {
  size_t w = id >> 6;
  return w < words.size() && (words[w] >> (id & 63)) & 1;
}

inline void Set(std::vector<uint64_t>& words, OptionId id) {
  size_t w = id >> 6;
  if (w >= words.size()) {
    words.resize(w + 1, 0);
  }
  words[w] |= uint64_t{1} << (id & 63);
}

inline void Clear(std::vector<uint64_t>& words, OptionId id) {
  size_t w = id >> 6;
  if (w < words.size()) {
    words[w] &= ~(uint64_t{1} << (id & 63));
  }
}

inline bool Intersects(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) {
      return true;
    }
  }
  return false;
}

// Equality modulo trailing zero words.
inline bool Equal(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  const auto& shorter = a.size() <= b.size() ? a : b;
  const auto& longer = a.size() <= b.size() ? b : a;
  for (size_t i = 0; i < shorter.size(); ++i) {
    if (shorter[i] != longer[i]) {
      return false;
    }
  }
  for (size_t i = shorter.size(); i < longer.size(); ++i) {
    if (longer[i] != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace bits

}  // namespace lupine::kconfig

#endif  // SRC_KCONFIG_INTERNING_H_
