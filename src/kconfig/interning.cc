#include "src/kconfig/interning.h"

#include <algorithm>
#include <mutex>

namespace lupine::kconfig {

OptionInterner& OptionInterner::Global() {
  // Leaked on purpose: ids (and NameOf references) must outlive every static
  // Config/OptionDb destructor regardless of destruction order.
  static OptionInterner* interner = new OptionInterner();
  return *interner;
}

OptionInterner::OptionInterner() : name_order_(std::make_shared<const NameOrder>()) {}

OptionId OptionInterner::Intern(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) {
      return it->second;
    }
  }
  std::unique_lock lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;  // Raced with another interner.
  }
  OptionId id = static_cast<OptionId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

OptionId OptionInterner::Find(std::string_view name) const {
  std::shared_lock lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoOption : it->second;
}

const std::string& OptionInterner::NameOf(OptionId id) const {
  std::shared_lock lock(mu_);
  return names_[id];
}

size_t OptionInterner::size() const {
  std::shared_lock lock(mu_);
  return names_.size();
}

std::shared_ptr<const NameOrder> OptionInterner::NameOrderCovering(
    const std::vector<OptionId>& ids) {
  auto covers = [&ids](const NameOrder& order) {
    return std::all_of(ids.begin(), ids.end(), [&](OptionId id) { return order.Ranks(id); });
  };
  {
    std::shared_lock lock(order_mu_);
    if (covers(*name_order_)) {
      return name_order_;
    }
  }
  std::unique_lock lock(order_mu_);
  const NameOrder& old = *name_order_;
  std::vector<NameOrder::Entry> fresh;
  {
    std::shared_lock names_lock(mu_);
    for (OptionId id : ids) {
      if (!old.Ranks(id)) {
        fresh.push_back({&names_[id], id});
      }
    }
  }
  if (fresh.empty()) {
    return name_order_;  // A racing caller already ranked them.
  }
  auto by_name = [](const NameOrder::Entry& a, const NameOrder::Entry& b) {
    return *a.name < *b.name;
  };
  std::sort(fresh.begin(), fresh.end(), by_name);
  fresh.erase(std::unique(fresh.begin(), fresh.end(),
                          [](const auto& a, const auto& b) { return a.id == b.id; }),
              fresh.end());
  // Names are unique, so merging the sorted fresh entries into the ranked
  // ones is a total order; then every entry is re-ranked.
  auto order = std::make_shared<NameOrder>();
  order->by_rank_.resize(old.by_rank_.size() + fresh.size());
  std::merge(old.by_rank_.begin(), old.by_rank_.end(), fresh.begin(), fresh.end(),
             order->by_rank_.begin(), by_name);
  OptionId max_id = 0;
  for (const auto& entry : fresh) {
    max_id = std::max(max_id, entry.id);
  }
  order->rank_.assign(std::max<size_t>(old.rank_.size(), max_id + 1), NameOrder::kUnranked);
  for (uint32_t rank = 0; rank < order->by_rank_.size(); ++rank) {
    order->rank_[order->by_rank_[rank].id] = rank;
  }
  name_order_ = std::move(order);
  return name_order_;
}

}  // namespace lupine::kconfig
