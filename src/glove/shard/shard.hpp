// glove::shard — the spatially-sharded parallel anonymization backend.
//
//   tile -> plan -> run shards in parallel -> reconcile borders
//
// The quadratic costs of GLOVE (the |M|^2/2 candidate matrix and the
// greedy merge loop, paper Sec. 6.3) are confined to spatial shards of
// bounded size, so populations far beyond the single-matrix limit become
// tractable; shard jobs run concurrently on a dedicated worker pool.  The
// output is k-anonymous as a whole and byte-stable across worker counts.
// Registered with the Engine as strategy "sharded"; this header is the
// subsystem's front door for direct library use.

#ifndef GLOVE_SHARD_SHARD_HPP
#define GLOVE_SHARD_SHARD_HPP

#include <string>
#include <string_view>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/shard/config.hpp"
#include "glove/shard/planner.hpp"
#include "glove/shard/reconcile.hpp"
#include "glove/shard/runner.hpp"
#include "glove/shard/tiling.hpp"
#include "glove/util/hooks.hpp"

namespace glove::shard {

/// Decomposition and phase accounting of a sharded run, on top of the
/// aggregated inner GLOVE counters.
struct ShardedStats {
  core::GloveStats glove;
  std::size_t tiles = 0;
  std::size_t shards = 0;
  std::size_t deferred_fingerprints = 0;
  std::size_t reconciled_groups = 0;
  std::size_t absorbed_leftovers = 0;
  /// Rewound passes over the source spent materializing reconciliation
  /// chunks (streaming runs with a true — non-materialized — source only;
  /// 0 for in-memory runs, which fetch leftovers by index).
  std::size_t reconcile_passes = 0;
  /// Tile edge actually used: the configured tile_size_m, or the
  /// density-derived choice when the config asked for adaptive (0).
  double tile_size_m = 0.0;
  double plan_seconds = 0.0;       ///< streaming scan + tiling + planning
  double reconcile_seconds = 0.0;  ///< cross-shard reconciliation pass
};

struct ShardedResult {
  cdr::FingerprintDataset anonymized;
  ShardedStats stats;
  /// Per-shard sizes and wall-clock, in shard order.
  std::vector<ShardTiming> shard_timings;
};

/// Canonical name of a sharded run's output dataset ("<base>-sharded-k<k>").
/// Shared by the in-memory wrapper and the streaming Engine strategy so
/// the two paths stay byte-identical down to the CSV header comment.
[[nodiscard]] std::string sharded_output_name(std::string_view base,
                                              std::uint32_t k);

/// Runs the sharded pipeline on an in-memory dataset (a thin wrapper over
/// the streaming core in stream.hpp).  Requires data.size() >= glove.k >=
/// 2, tile_size_m >= 0 (0 = adaptive), halo_m >= 0 and max_shard_users >=
/// glove.k (std::invalid_argument otherwise).  Deterministic for a given
/// input and configuration, independent of `workers` and of the shared
/// pool size.  Progress units are input fingerprints plus one
/// reconciliation unit; cancellation aborts with util::CancelledError and
/// no output.
[[nodiscard]] ShardedResult anonymize_sharded(
    const cdr::FingerprintDataset& data, const ShardConfig& config,
    const util::RunHooks& hooks = {});

}  // namespace glove::shard

#endif  // GLOVE_SHARD_SHARD_HPP
