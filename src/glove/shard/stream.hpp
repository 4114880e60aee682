// Streaming execution of the sharded backend: the run boundary for
// datasets larger than RAM.  The input is an api::DatasetSource, read on
// one data plane whatever its kind: the planning scan takes its
// summaries() and every later pass fetch()es exactly the fingerprints it
// needs.  A glovebin file serves both from its footer and blocks, an
// in-memory api::MemorySource computes and copies them, and a source
// without an index (CSV) is read exactly once, into a private
// api::SourceSpill that serves them instead.
//
//   pass 1  — the scan keeps only per-fingerprint bounding geometry (+
//             group size): enough to tile, plan shards, split the border
//             and plan the reconciliation without ever holding samples;
//   pass 2+ — one loop walks the run's units a budget's worth per pass:
//             first the shards' kept sets (max_shard_users x workers per
//             pass), then the reconciliation's deferred >= k
//             pass-throughs, its locality-sorted GLOVE chunks and its
//             policy tail (reconcile_chunk_users per pass).  A pass's
//             shards or chunks are independent GLOVE jobs that run as one
//             batch on an in-process pool; their groups are emitted in
//             unit order and freed at once.
//
// Peak sample memory is O(largest pass) — bounded by max_shard_users x
// pool workers for the shards, and by reconcile_chunk_users members plus
// at most `workers` in-flight chunk candidate heaps for the halo
// reconciliation — instead of O(dataset) or O(borders).  The output bytes
// and the pass structure are the same for every source kind, and the
// bytes for every budget and worker count.  The rare absorb-leftovers
// tail (fewer than k sub-k leftovers under kMergeIntoNearest) may rewrite
// any already-finalized group, so that run holds the output groups until
// the pass that reads the tail has absorbed it, then emits them.

#ifndef GLOVE_SHARD_STREAM_HPP
#define GLOVE_SHARD_STREAM_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "glove/api/source.hpp"
#include "glove/cdr/fingerprint.hpp"
#include "glove/shard/shard.hpp"
#include "glove/util/hooks.hpp"

namespace glove::shard {

/// Receives finalized k-anonymous groups in output order.
using GroupEmitter = std::function<void(cdr::Fingerprint&&)>;

struct StreamShardedResult {
  ShardedStats stats;
  /// Per-shard sizes and wall-clock, in shard order.
  std::vector<ShardTiming> shard_timings;
  /// Fingerprints read on each pass, the same for every source kind: the
  /// planning scan counts the whole dataset, then each shard-batch pass
  /// and each reconciliation pass (stats.reconcile_passes counts those)
  /// exactly the fingerprints it fetched, so the later passes sum to the
  /// scan's count.
  std::vector<std::uint64_t> pass_fingerprints;
  /// The spill's io accounting when pass 1 spilled the source (pass_blocks
  /// aligned with pass_fingerprints, 0 for the scan); nullopt otherwise.
  std::optional<api::SourceIoStats> spill_io;
  /// Threads of the pool that ran the shard batches and reconcile chunks:
  /// config.workers (0 = the shared-pool default), capped at the larger
  /// of the shard and reconcile-chunk counts.
  std::uint64_t workers = 0;
};

/// Runs the sharded pipeline over `source`, emitting groups to `emit` as
/// they are finalized.  The source is read once; one without an index is
/// spilled to a private glovebin (api::SourceSpill) for the run's
/// duration.  Requires glove.k >= 2, tile_size_m >= 0 (0 = adaptive from
/// observed anchor density), halo_m >= 0 and max_shard_users >= glove.k
/// (std::invalid_argument otherwise); a source holding fewer than k
/// fingerprints raises util::DatasetError.
/// Deterministic for a given source content and configuration,
/// independent of `workers` and of batch boundaries (shard and reconcile
/// budgets alike).  Progress units are input fingerprints — kept ones as
/// their shard's GLOVE advances, deferred ones as reconciliation consumes
/// them — plus one final reconcile tick; cancellation aborts with
/// util::CancelledError (groups already emitted stay with the emitter —
/// file sinks may hold a partial dataset on failure).
[[nodiscard]] StreamShardedResult anonymize_sharded_stream(
    api::DatasetSource& source, const core::GloveConfig& glove,
    const ShardConfig& config, const GroupEmitter& emit,
    const util::RunHooks& hooks = {});

}  // namespace glove::shard

#endif  // GLOVE_SHARD_STREAM_HPP
