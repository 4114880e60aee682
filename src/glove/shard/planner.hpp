// ShardPlanner: packs Morton-ordered tiles into load-balanced shards, and
// splits each shard's members into the ones it anonymizes itself and the
// ones it defers to the cross-shard reconciliation pass.
//
// Invariants of a plan (for any dataset with >= k fingerprints):
//   * every fingerprint belongs to exactly one shard;
//   * every shard holds at least k fingerprints (so per-shard GLOVE can
//     run), built from whole tiles so the border test stays tile-local;
//   * shards respect the max_shard_users budget except when forced over it
//     by the >= k floor or by a single oversized tile.
//
// The border split depends only on the per-fingerprint bounding geometry,
// never on the samples, so the streaming pipeline computes it from its
// first (bounds-only) pass before any fingerprint is materialized.

#ifndef GLOVE_SHARD_PLANNER_HPP
#define GLOVE_SHARD_PLANNER_HPP

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "glove/shard/config.hpp"
#include "glove/shard/tiling.hpp"

namespace glove::shard {

/// One planned shard: the fingerprints it anonymizes (dataset indices, in
/// tile-Morton-then-index order) and the tiles it owns.
struct PlannedShard {
  std::vector<std::uint32_t> members;
  std::vector<geo::GridCell> cells;
};

struct ShardPlan {
  std::vector<PlannedShard> shards;
  /// Owning shard of every occupied cell (the border test).
  std::unordered_map<geo::GridCell, std::size_t> shard_of_cell;
  std::size_t tiles = 0;
};

class ShardPlanner {
 public:
  ShardPlanner(std::uint32_t k, const ShardConfig& config)
      : k_{k}, config_{config} {}

  /// Deterministic for a given tiling and configuration.  Requires the
  /// tiling to hold at least k fingerprints.
  [[nodiscard]] ShardPlan plan(const Tiling& tiling) const;

 private:
  std::uint32_t k_;
  ShardConfig config_;
};

/// Wall-clock and size accounting of one shard job (surfaced in the
/// Engine's RunReport as the "shards" array).
struct ShardTiming {
  std::size_t shard = 0;
  std::size_t input_fingerprints = 0;  ///< anonymized inside this shard
  std::size_t deferred = 0;            ///< handed to reconciliation
  std::size_t output_groups = 0;
  double init_seconds = 0.0;
  double merge_seconds = 0.0;
  double total_seconds = 0.0;
};

/// True when `bounds`, inflated by `halo_m`, touches a tile owned by a
/// shard other than `home_shard` — the deferral test of
/// BorderPolicy::kHalo.  Exposed for tests.
[[nodiscard]] bool crosses_shard_border(const core::FingerprintBounds& bounds,
                                        std::size_t home_shard,
                                        const ShardPlan& plan,
                                        double tile_size_m, double halo_m);

/// The serial kept/deferred split of a plan: per shard, the fingerprints
/// it anonymizes itself and the ones handed to reconciliation (border
/// fingerprints under BorderPolicy::kHalo, or the whole shard when its
/// kept set would fall below k).  A single-shard plan has no borders.
/// Deterministic for a given tiling and plan, independent of workers.
struct BorderSplit {
  /// Per shard: dataset indices anonymized inside the shard, in planned
  /// member order.
  std::vector<std::vector<std::uint32_t>> kept;
  /// Per shard: dataset indices deferred to reconciliation (member order;
  /// sorted ascending when a collapsed shard defers everything).
  std::vector<std::vector<std::uint32_t>> deferred;
};

[[nodiscard]] BorderSplit split_borders(const Tiling& tiling,
                                        const ShardPlan& plan,
                                        std::uint32_t k,
                                        const ShardConfig& config);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_PLANNER_HPP
