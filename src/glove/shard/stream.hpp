// Streaming execution of the sharded backend: the run boundary for
// datasets larger than RAM.  The input is an api::DatasetSource, read
// exactly once.
//
//   pass 1  — scan the source once, keeping only per-fingerprint bounding
//             geometry (+ group size): enough to tile, plan shards and
//             compute the kept/deferred border split without ever holding
//             the samples.  An indexed source (glovebin) serves the scan
//             from its footer; a source without an index (CSV) is copied
//             by the same scan into a private api::SourceSpill, whose
//             footer then serves it;
//   pass 2+ — one pass per shard batch, fetching from the index (the
//             input's own, or the spill's) only the fingerprints of the
//             shards currently running; finished groups are pushed to the
//             emitter as each batch completes and freed immediately;
//   pass N+ — one pass per reconciliation budget: the deferred border
//             leftovers are partitioned into locality-sorted GLOVE chunks
//             from their pass-1 bounds alone (planned right after the
//             border split) and each pass materializes one budget's worth
//             (reconcile_chunk_users), mirroring the shard batches.  A
//             pass's chunks are independent GLOVE jobs, so they run
//             concurrently as one batch on the same in-process pool as
//             the shards, and their groups are emitted in plan order.
//
// Peak sample memory is O(largest batch) — bounded by max_shard_users x
// pool workers for the shard phase, and for the halo reconciliation
// by reconcile_chunk_users materialized members plus at most `workers`
// in-flight chunk candidate heaps — instead of O(dataset) or O(borders).
// The output bytes are the same for every source kind (an in-memory
// api::MemorySource, a spilled CSV, an indexed glovebin), every budget
// and every worker count.  Every reconciliation runs through the same
// passes, including the rare absorb-leftovers tail (fewer than k sub-k
// leftovers under kMergeIntoNearest): absorption may rewrite any
// already-finalized group, so that run holds the output groups until the
// reconcile pass that reads the tail has absorbed it, then emits them.

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
  /// Fingerprints read on each pass (the planning scan, one entry per
  /// shard-batch materialization pass, then one per reconciliation pass —
  /// stats.reconcile_passes counts those).  A materialized() source is
  /// read by index, so it reports the single scan pass.  Otherwise the
  /// scan counts the whole dataset and each later pass exactly the
  /// fingerprints it fetched, so the later passes sum to the scan's count.
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
/// their shard completes, deferred ones as reconciliation consumes them —
/// plus one final reconcile tick; cancellation aborts with
/// util::CancelledError (groups already emitted stay with the emitter —
/// file sinks may hold a partial dataset on failure).
[[nodiscard]] StreamShardedResult anonymize_sharded_stream(
    api::DatasetSource& source, const core::GloveConfig& glove,
    const ShardConfig& config, const GroupEmitter& emit,
    const util::RunHooks& hooks = {});

}  // namespace glove::shard

#endif  // GLOVE_SHARD_STREAM_HPP
