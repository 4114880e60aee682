// glove::shard — the spatially-sharded parallel anonymization backend.
//
//   tile -> plan -> run shards in parallel -> reconcile borders
//
// The quadratic costs of GLOVE (the |M|^2/2 candidate matrix and the
// greedy merge loop, paper Sec. 6.3) are confined to spatial shards of
// bounded size, so populations far beyond the single-matrix limit become
// tractable; shard jobs run concurrently on a dedicated worker pool.  The
// output is k-anonymous as a whole and byte-stable across worker counts.
// Registered with the Engine as strategy "sharded"; direct library callers
// run anonymize_sharded_stream (stream.hpp), wrapping an in-memory dataset
// in an api::MemorySource.

#ifndef GLOVE_SHARD_SHARD_HPP
#define GLOVE_SHARD_SHARD_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "glove/shard/config.hpp"
#include "glove/shard/planner.hpp"
#include "glove/shard/reconcile.hpp"
#include "glove/shard/tiling.hpp"

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
  /// Passes that fetched reconciliation units — pass-throughs, chunks and
  /// the policy tail — one per reconcile_chunk_users budget, for every
  /// source kind; 0 when nothing was deferred.
  std::size_t reconcile_passes = 0;
  /// Tile edge actually used: the configured tile_size_m, or the
  /// density-derived choice when the config asked for adaptive (0).
  double tile_size_m = 0.0;
  double plan_seconds = 0.0;       ///< streaming scan + tiling + planning
  double reconcile_seconds = 0.0;  ///< cross-shard reconciliation pass
};

/// Canonical name of a sharded run's output dataset ("<base>-sharded-k<k>"),
/// which the Engine's sharded strategy hands its sink.
[[nodiscard]] inline std::string sharded_output_name(std::string_view base,
                                                     std::uint32_t k) {
  return std::string{base} + "-sharded-k" + std::to_string(k);
}

}  // namespace glove::shard

#endif  // GLOVE_SHARD_SHARD_HPP
