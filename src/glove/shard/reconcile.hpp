// Cross-shard reconciliation: the deterministic final pass that makes the
// sharded output k-anonymous as a whole.
//
// Its input is every fingerprint the border split deferred (border
// fingerprints under BorderPolicy::kHalo plus whole shards whose kept set
// fell below k).  Groups already at or above k pass straight through; the
// sub-k rest is anonymized together over locality-sorted chunks (so
// cross-tile candidate pairs — the reason the fingerprints were deferred —
// are merge candidates again).  A remainder smaller than k falls back to the
// configured leftover policy: absorbed into the nearest finalized group,
// or suppressed.
//
// Two call shapes expose the same algorithm:
//
//   * reconcile_leftovers — the monolithic form over materialized
//     leftovers (the rare buffered-absorb tail of a sharded run);
//   * plan_reconcile + one pruned-GLOVE run per chunk — the
//     chunk-resumable form the streaming pipeline drives: the schedule is
//     computed from per-leftover bounding geometry and group sizes alone
//     (both already resident after the pass-1 scan), then the chunks are
//     materialized by rewound passes and run as batch jobs (each
//     exactly what reconcile_chunk does).  Chunk membership, member order
//     and per-chunk execution are exactly anonymize_chunked's, so the two
//     shapes emit identical bytes.

#ifndef GLOVE_SHARD_RECONCILE_HPP
#define GLOVE_SHARD_RECONCILE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "glove/cdr/fingerprint.hpp"
#include "glove/core/scalability.hpp"
#include "glove/shard/config.hpp"
#include "glove/util/hooks.hpp"

namespace glove::shard {

struct ReconcileStats {
  /// Groups produced by the reconciliation GLOVE run.
  std::size_t reconciled_groups = 0;
  /// Leftovers merged into an existing shard-output group.
  std::size_t absorbed = 0;
  /// Inner GLOVE counters of the reconciliation run.
  core::GloveStats glove;
  double seconds = 0.0;
};

/// The reconciliation schedule, derived from per-leftover bounding
/// geometry and group sizes alone — never the samples.  Every entry is a
/// position into the leftover sequence (its (shard, member) order).
/// Output order across the whole phase: `passthrough` first, then each
/// chunk's GLOVE output in chunk order, then the `tail` policy result.
struct ReconcilePlan {
  /// Leftovers already hiding >= k users (possible when the input is a
  /// re-anonymization): passed through unchanged, in leftover order.
  std::vector<std::uint32_t> passthrough;
  /// When at least k sub-k leftovers exist: the sub-k positions,
  /// locality-sorted by core::locality_sort_key (ties broken by leftover
  /// order — exactly anonymize_chunked's key) and partitioned into GLOVE
  /// chunks of max(max_shard_users, k) members, never leaving a tail
  /// smaller than k.
  std::vector<std::vector<std::uint32_t>> chunks;
  /// When fewer than k sub-k leftovers exist: their positions in leftover
  /// order, handled by the configured leftover policy (absorb into the
  /// nearest finalized group, or suppress).  Empty whenever `chunks` is
  /// non-empty.
  std::vector<std::uint32_t> tail;
  /// Total sub-k leftovers (the chunk members, or the tail).
  std::size_t subk_count = 0;
};

/// Plans the reconciliation from pass-1 residue.  `bounds[i]` and
/// `group_sizes[i]` describe the i-th deferred leftover; the spans must
/// have equal length (std::invalid_argument otherwise).  Deterministic in
/// its inputs and configuration.
[[nodiscard]] ReconcilePlan plan_reconcile(
    std::span<const core::FingerprintBounds> bounds,
    std::span<const std::uint32_t> group_sizes, std::uint32_t k,
    const ShardConfig& config);

/// Runs the reconciliation GLOVE over one planned chunk.  `members` must
/// hold the chunk's fingerprints in planned order; finalized groups are
/// handed to `emit` in output order and the inner counters (including the
/// chunk's input/output dataset shape) accumulate into `stats`.  Driving
/// every chunk of a plan through this reproduces anonymize_chunked over
/// the whole sub-k set byte for byte — each chunk is an independent
/// pruned-GLOVE run.  `hooks` forward into the inner run (progress in the
/// inner run's own units; adapt before calling when a different scale is
/// reported upstream).  The streaming pipeline runs the same GLOVE call
/// as a job of its batch runner instead.
void reconcile_chunk(std::vector<cdr::Fingerprint> members,
                     const core::GloveConfig& glove, ReconcileStats& stats,
                     const std::function<void(cdr::Fingerprint&&)>& emit,
                     const util::RunHooks& hooks);

/// Counts one suppressed sub-k leftover into `stats`: its hidden users as
/// discarded, its original samples (summed contributors) as deleted — the
/// single deletion definition every suppression path shares.  Used by the
/// monolithic tail below and by the streaming pipeline's tail unit.
void count_suppressed_leftover(const cdr::Fingerprint& leftover,
                               ReconcileStats& stats);

/// Reconciles `leftovers` against the shard outputs in `anonymized`
/// (modified in place: reconciled groups are appended, absorbing groups
/// are replaced).  Deterministic: leftovers keep their (shard, member)
/// order and absorption scans groups in stable order with strict-minimum
/// tie-breaking.  Progress is reported in leftovers consumed out of
/// `leftovers.size()` (fractional within a running GLOVE chunk);
/// cancellation is polled between chunks, inside each chunk's loops and
/// between absorbs.
[[nodiscard]] ReconcileStats reconcile_leftovers(
    std::vector<cdr::Fingerprint> leftovers,
    std::vector<cdr::Fingerprint>& anonymized, const core::GloveConfig& glove,
    const ShardConfig& config, const util::RunHooks& hooks);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_RECONCILE_HPP
