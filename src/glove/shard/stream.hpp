// Streaming execution of the sharded backend: the run boundary for
// datasets larger than RAM.
//
//   pass 1  — scan the stream once, keeping only per-fingerprint bounding
//             geometry (+ group size): enough to tile, plan shards and
//             compute the kept/deferred border split without ever holding
//             the samples;
//   pass 2+ — rewind and re-scan once per shard batch, materializing only
//             the fingerprints of the shards currently running; finished
//             groups are pushed to the emitter as each batch completes
//             and freed immediately;
//   pass N+ — rewind once per reconciliation pass: the deferred border
//             leftovers are partitioned into locality-sorted GLOVE chunks
//             from their pass-1 bounds alone (planned right after the
//             border split) and each pass materializes one budget's worth
//             (reconcile_chunk_users), mirroring the shard batches.  A
//             pass's chunks are independent GLOVE jobs, so they run
//             concurrently as one batch on the same ShardExecutor as the
//             shards, and their groups are emitted in plan order.
//
// Peak sample memory is O(largest batch) — bounded by max_shard_users x
// executor workers for the shard phase, and for the halo reconciliation
// by reconcile_chunk_users materialized members plus at most `workers`
// in-flight chunk candidate heaps — instead of O(dataset) or O(borders).
// The output is byte-identical to the in-memory pipeline
// (anonymize_sharded is a thin wrapper over this core) for every budget
// and worker count, including the rare absorb-leftovers tail case, which
// falls back to buffering the output groups because absorption may
// rewrite any already-finalized group.

#ifndef GLOVE_SHARD_STREAM_HPP
#define GLOVE_SHARD_STREAM_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "glove/cdr/binio.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/shard/exec/executor.hpp"
#include "glove/shard/shard.hpp"
#include "glove/util/hooks.hpp"

namespace glove::shard {

/// Pull-based fingerprint stream the sharded backend consumes twice or
/// more.  `rewind()` must restart the sequence from the beginning (also
/// after EOF) and every pass must yield the same fingerprints in the same
/// order — the pipeline throws util::DatasetError when the count changes
/// between passes.
class FingerprintStream {
 public:
  virtual ~FingerprintStream() = default;

  /// Yields the next fingerprint.  Returns false at end of stream.
  virtual bool next(cdr::Fingerprint& fingerprint) = 0;

  /// Restarts from the first fingerprint.
  virtual void rewind() = 0;

  /// Zero-copy escape hatch: when the stream is backed by an already
  /// materialized dataset, returns it and the pipeline reads fingerprints
  /// by index (copying only the shard batches it runs, exactly like the
  /// pre-streaming runner) instead of re-streaming the whole sequence per
  /// batch.  Byte-identical output either way.  nullptr for true streams.
  [[nodiscard]] virtual const cdr::FingerprintDataset* materialized()
      const noexcept {
    return nullptr;
  }

  /// Index fast path for pass 1: when the stream carries precomputed
  /// per-fingerprint summaries (bit-exact core::fingerprint_bounds fields
  /// plus group size and sample count, in stream order), fills `out` and
  /// returns true so the planning scan never touches the payload.
  /// Default: unsupported.
  virtual bool summaries(std::vector<cdr::FingerprintSummary>& out) {
    (void)out;
    return false;
  }

  /// Index fast path for the rewound materialization passes: fetches
  /// exactly the fingerprints whose stream index keys `slot_of_id` into
  /// their mapped slots of `store` (pre-sized by the caller) and returns
  /// how many it materialized.  nullopt when the stream has no random
  /// access — the pipeline then re-streams the whole sequence.
  virtual std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) {
    (void)slot_of_id;
    (void)store;
    return std::nullopt;
  }

  /// Path of the file backing this stream, when there is one.  The
  /// process ShardExecutor hands it to its workers so each can re-read
  /// its shard slice through its own streaming front door; streams
  /// without a shared file (in-memory datasets) return nullopt and only
  /// support the in-process executor.
  [[nodiscard]] virtual std::optional<std::string> file_path() const {
    return std::nullopt;
  }
};

/// In-memory adapter: streams an existing dataset (copies on yield), the
/// bridge the legacy dataset-in/dataset-out API uses.
class DatasetStream final : public FingerprintStream {
 public:
  explicit DatasetStream(const cdr::FingerprintDataset& data) noexcept
      : data_{&data} {}

  bool next(cdr::Fingerprint& fingerprint) override {
    if (cursor_ >= data_->size()) return false;
    fingerprint = (*data_)[cursor_++];
    return true;
  }

  void rewind() override { cursor_ = 0; }

  [[nodiscard]] const cdr::FingerprintDataset* materialized()
      const noexcept override {
    return data_;
  }

 private:
  const cdr::FingerprintDataset* data_;
  std::size_t cursor_ = 0;
};

/// Receives finalized k-anonymous groups in output order.
using GroupEmitter = std::function<void(cdr::Fingerprint&&)>;

struct StreamShardedResult {
  ShardedStats stats;
  /// Per-shard sizes and wall-clock, in shard order.
  std::vector<ShardTiming> shard_timings;
  /// Fingerprints read from the stream on each pass (the planning scan,
  /// one entry per shard-batch materialization pass, then one per
  /// reconciliation chunk pass — stats.reconcile_passes counts those).
  /// A materialized() source is never re-streamed, so it reports the
  /// single scan pass.  An index-capable stream (fetch()) reports, for
  /// each rewound pass, only the fingerprints that pass materialized —
  /// strictly fewer than the scan's full count.  Under the process
  /// executor the shard batches are read worker-side, so only the
  /// planning pass and the reconciliation passes that carry pass-through
  /// or tail leftovers (chunk slices are read worker-side too) appear
  /// here.
  std::vector<std::uint64_t> pass_fingerprints;
  /// Which ShardExecutor ran the shard batches and reconcile chunks
  /// ("inprocess", "process") and its resolved parallelism, for the run
  /// report's "exec" section.
  std::string exec_kind;
  std::uint64_t exec_workers = 0;
  /// Per-worker accounting (process executor only; empty otherwise).
  std::vector<exec::ExecWorkerStats> exec_worker_stats;
};

/// Runs the sharded pipeline over a restartable stream, emitting groups
/// to `emit` as they are finalized.  Requires glove.k >= 2, tile_size_m
/// >= 0 (0 = adaptive from observed anchor density), halo_m >= 0 and
/// max_shard_users >= glove.k (std::invalid_argument otherwise); a stream
/// holding fewer than k fingerprints raises util::DatasetError.
/// Deterministic for a given stream content and configuration,
/// independent of `workers` and of batch boundaries (shard and reconcile
/// budgets alike).  Progress units are input fingerprints — kept ones as
/// their shard completes, deferred ones as reconciliation consumes them —
/// plus one final reconcile tick; cancellation aborts with
/// util::CancelledError (groups already emitted stay with the emitter —
/// file sinks may hold a partial dataset on failure).
[[nodiscard]] StreamShardedResult anonymize_sharded_stream(
    FingerprintStream& source, const ShardConfig& config,
    const GroupEmitter& emit, const util::RunHooks& hooks = {});

}  // namespace glove::shard

#endif  // GLOVE_SHARD_STREAM_HPP
