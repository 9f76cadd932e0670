// GridRegistry: the multi-grid front of the serving layer — named
// RegularSparseGrid coefficient sets (CompactStorage).
//
// A long-lived server fronts many grids at once (one per field / dataset /
// tenant). The registry owns each grid's coefficients; the grid owns its
// evaluation plan (RegularSparseGrid::plan()), which registration builds so
// that no batch pays for it. A plan lives as long as its entry, however many
// (d, n) shapes the registry holds.
//
// Lookups hand out shared_ptr<const GridEntry>: a grid removed (or
// replaced) while requests are in flight stays alive until the last batch
// referencing it completes. Publication of the immutable entry happens
// under the registry lock, so readers never observe a half-built grid.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "csg/core/compact_storage.hpp"
#include "csg/core/evaluation_plan.hpp"
#include "csg/core/thread_annotations.hpp"

namespace csg::serve {

/// One served grid: immutable after registration.
struct GridEntry {
  std::string name;
  CompactStorage storage;

  /// Builds the grid's plan, so the first batch does not.
  GridEntry(std::string entry_name, CompactStorage entry_storage)
      : name(std::move(entry_name)), storage(std::move(entry_storage)) {
    (void)storage.grid().plan();
  }

  /// Live bytes of this entry: coefficient payload + descriptor + the
  /// plan arrays.
  std::size_t memory_bytes() const {
    return storage.memory_bytes() + storage.grid().plan().memory_bytes();
  }
};

class GridRegistry {
 public:
  /// Register `storage` under `name`, replacing any previous grid of that
  /// name (in-flight requests against the old entry finish on it). Returns
  /// the published entry. Throws std::invalid_argument, naming the grid and
  /// the first bad flat index, if a coefficient is NaN or infinite; the
  /// registry is then left unchanged.
  std::shared_ptr<const GridEntry> add(const std::string& name,
                                       CompactStorage storage);

  /// The entry for `name`, or nullptr when unknown.
  std::shared_ptr<const GridEntry> find(const std::string& name) const;

  /// Unregister `name`. Returns false when it was not registered. The
  /// entry's memory is released once the last in-flight reference drops.
  bool remove(const std::string& name);

  std::size_t size() const;

  /// Registered names, sorted (stable output for tools and tests).
  std::vector<std::string> names() const;

  /// Bytes held by the registered grids (coefficients + descriptors +
  /// plans). Counts live entries only: removed or replaced grids
  /// leave this figure immediately, even while in-flight batches still
  /// hold them.
  std::size_t memory_bytes() const;

 private:
  mutable SharedMutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const GridEntry>> grids_
      CSG_GUARDED_BY(mutex_);
};

}  // namespace csg::serve
