#include "csg/serve/grid_registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace csg::serve {

std::shared_ptr<const GridEntry> GridRegistry::add(const std::string& name,
                                                   CompactStorage storage) {
  // One NaN or inf coefficient turns every answer on its support into NaN,
  // so it is refused at the boundary, before the registry is touched.
  const std::vector<real_t>& v = storage.values();
  const auto bad = std::find_if(v.begin(), v.end(),
                                [](real_t c) { return !std::isfinite(c); });
  if (bad != v.end())
    throw std::invalid_argument(
        "GridRegistry::add: grid '" + name + "' has a non-finite coefficient (" +
        std::to_string(*bad) + ") at flat index " +
        std::to_string(bad - v.begin()));
  // Build (and plan) outside the lock: registration of a large grid must
  // not stall concurrent lookups.
  auto entry = std::make_shared<const GridEntry>(name, std::move(storage));
  ExclusiveLock lock(mutex_);
  grids_[name] = entry;
  return entry;
}

std::shared_ptr<const GridEntry> GridRegistry::find(
    const std::string& name) const {
  SharedLock lock(mutex_);
  const auto it = grids_.find(name);
  return it == grids_.end() ? nullptr : it->second;
}

bool GridRegistry::remove(const std::string& name) {
  ExclusiveLock lock(mutex_);
  return grids_.erase(name) > 0;
}

std::size_t GridRegistry::size() const {
  SharedLock lock(mutex_);
  return grids_.size();
}

std::vector<std::string> GridRegistry::names() const {
  std::vector<std::string> out;
  {
    SharedLock lock(mutex_);
    out.reserve(grids_.size());
    for (const auto& [name, entry] : grids_) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t GridRegistry::memory_bytes() const {
  SharedLock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [name, entry] : grids_) total += entry->memory_bytes();
  return total;
}

}  // namespace csg::serve
