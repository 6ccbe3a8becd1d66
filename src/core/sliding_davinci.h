#ifndef DAVINCI_CORE_SLIDING_DAVINCI_H_
#define DAVINCI_CORE_SLIDING_DAVINCI_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/epoch_manager.h"

// Sliding-window extension: the paper's related work notes that heavy-
// hitter systems manage temporal locality with sliding windows; DaVinci's
// linearity makes this a natural extension. Since PR 5 this is a thin
// client of EpochManager (DESIGN.md §10), which owns rotation, the ring of
// sealed epochs, and the memoized window merges; SlidingDaVinci just keeps
// the historical window-API names.

namespace davinci {

class SlidingDaVinci {
 public:
  // `epochs` sub-sketches of `bytes_per_epoch` each cover the window.
  SlidingDaVinci(size_t epochs, size_t bytes_per_epoch, uint64_t seed)
      : engine_(epochs, bytes_per_epoch, seed) {}

  // Insert into the current (newest) epoch.
  void Insert(uint32_t key, int64_t count = 1) { engine_.Insert(key, count); }

  // Batched insert into the current epoch (DaVinciSketch::InsertBatch
  // semantics: bit-equivalent to single Inserts in stream order).
  void InsertBatch(std::span<const uint32_t> keys,
                   std::span<const int64_t> counts) {
    engine_.InsertBatch(keys, counts);
  }
  void InsertBatch(std::span<const uint32_t> keys) {
    engine_.InsertBatch(keys);
  }

  // Close the current epoch and open a new one; the oldest epoch falls
  // out of the window once more than `epochs` have been opened.
  void Advance() { engine_.Advance(); }

  // Frequency over the whole window (sum of per-epoch estimates).
  int64_t Query(uint32_t key) const { return engine_.Query(key); }

  // Frequency in the most recent epoch only.
  int64_t QueryCurrentEpoch(uint32_t key) const {
    return engine_.QueryCurrentEpoch(key);
  }

  // One merged sketch covering the window, for the remaining tasks
  // (heavy hitters, cardinality, distribution, entropy, joins).
  DaVinciSketch MergedWindow() const { return engine_.MergedWindow(); }

  // Heavy changers of the newest epoch against the merged remainder of
  // the window (the paper's two-window semantics).
  std::vector<std::pair<uint32_t, int64_t>> HeavyChangers(
      int64_t delta) const {
    return engine_.HeavyChangers(delta);
  }

  // Aborts (DAVINCI_CHECK) if any window epoch or memoized window merge
  // violates its sketch invariants (see EpochManager::CheckInvariants).
  void CheckInvariants(InvariantMode mode) const {
    engine_.CheckInvariants(mode);
  }

  // Aggregated health telemetry across the window epochs plus the epoch
  // engine's rotation/memoization counters.
  void CollectStats(obs::HealthSnapshot* out) const {
    engine_.CollectStats(out);
  }

  size_t epochs_in_window() const { return engine_.epochs_in_window(); }
  size_t MemoryBytes() const { return engine_.MemoryBytes(); }

  const EpochManager& engine() const { return engine_; }

 private:
  EpochManager engine_;
};

}  // namespace davinci

#endif  // DAVINCI_CORE_SLIDING_DAVINCI_H_
