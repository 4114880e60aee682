// Layout of the spatially-sharded anonymization backend: the geo space is
// tiled on a regular grid, tiles are packed into load-balanced shards,
// every shard runs the exact GLOVE pipeline independently (in parallel
// across a worker pool), and a deterministic reconciliation pass handles
// fingerprints near shard borders so candidate merge pairs spanning tiles
// are not lost.  The GLOVE parameters themselves (k, stretch limits,
// suppression, reshape, leftover policy) are a core::GloveConfig passed
// alongside; api::RunConfig holds this struct as its `sharded` section.

#ifndef GLOVE_SHARD_CONFIG_HPP
#define GLOVE_SHARD_CONFIG_HPP

#include <cstddef>

namespace glove::shard {

/// What to do with fingerprints whose bounding geometry comes close to a
/// shard border — exactly the fingerprints whose best merge partner may
/// live in a neighbouring shard.
enum class BorderPolicy {
  /// Defer border fingerprints (bounding box within `halo_m` of a tile
  /// owned by another shard) to the cross-shard reconciliation pass, where
  /// they can merge with partners from any shard.  Default: preserves the
  /// cross-tile pairs the tiling would otherwise cut.
  kHalo,
  /// Anonymize every fingerprint inside its home shard.  Fastest; border
  /// users may pay extra stretch because cross-shard pairs are never
  /// considered.
  kNone,
};

/// Sharded-run layout: the spatial decomposition and the scheduler.
struct ShardConfig {
  /// Edge length of the square spatial tiles fingerprints are bucketed
  /// into (by bounding-box centre).  Smaller tiles mean more, smaller
  /// shards: faster but with more border traffic.  0 = adaptive
  /// (choose_tile_size derives the edge from the anchor density observed
  /// during the planning pass, targeting a fingerprints-per-tile band and
  /// shrinking until the densest tile fits max_shard_users); the resolved
  /// value is reported as the "tile_size_m" run metric.
  double tile_size_m = 25'000.0;

  /// Load-balancing target: the planner packs whole tiles into shards of
  /// at most this many fingerprints (a single tile larger than the budget
  /// stays one shard — shrink `tile_size_m` instead).  Must be >= k.
  std::size_t max_shard_users = 2'000;

  /// Shard-scheduler worker threads; 0 follows the shared-pool default
  /// (GLOVE_THREADS when set, else hardware concurrency).  The per-shard
  /// inner loops additionally use the shared pool, exactly like the
  /// non-sharded strategies.  Output is identical for every worker count
  /// (byte-stable determinism is tested).
  std::size_t workers = 0;

  BorderPolicy border = BorderPolicy::kHalo;

  /// Width of the border strip (metres) for BorderPolicy::kHalo: a
  /// fingerprint is deferred when its bounding box, inflated by this
  /// margin, touches a tile owned by a different shard.
  double halo_m = 1'000.0;

  /// Streaming-run budget for the halo-reconciliation phase: at most this
  /// many deferred fingerprints are materialized per
  /// reconciliation pass (passes close on whole reconcile units — the
  /// >=k pass-throughs, each locality-sorted GLOVE chunk, the leftover
  /// tail — and a single unit larger than the budget still forms its own
  /// pass).  0 = the shard batch budget (max_shard_users x scheduler
  /// workers).  Only pass boundaries move: the reconciliation GLOVE
  /// chunking itself is fixed by max_shard_users, so the output bytes are
  /// identical for every budget.
  std::size_t reconcile_chunk_users = 0;
};

}  // namespace glove::shard

#endif  // GLOVE_SHARD_CONFIG_HPP
