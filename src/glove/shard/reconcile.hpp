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
// The streaming pipeline (stream.hpp) drives it: plan_reconcile computes
// the schedule from per-leftover bounding geometry and group sizes alone
// (both already resident after the pass-1 scan), later passes
// materialize the units, each chunk runs as a batch job of
// core::anonymize_pruned, and reconcile_tail applies the leftover policy
// to the tail.  Chunk membership, member order and per-chunk execution
// are exactly anonymize_chunked's, so concatenating the chunk outputs
// reproduces anonymize_chunked over the sub-k set byte for byte.

#ifndef GLOVE_SHARD_RECONCILE_HPP
#define GLOVE_SHARD_RECONCILE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "glove/cdr/fingerprint.hpp"
#include "glove/core/scalability.hpp"
#include "glove/shard/config.hpp"
#include "glove/util/hooks.hpp"

namespace glove::shard {

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

/// Applies the configured leftover policy to the plan's `tail` (fewer
/// than k sub-k leftovers, in leftover order), mirroring the core greedy
/// loop's tail handling, and returns how many leftovers were absorbed.
///
///   * kSuppress: each leftover's hidden users count as discarded and its
///     original samples (summed contributors) as deleted — the single
///     deletion definition every suppression path shares.  `groups` is
///     left alone.
///   * kMergeIntoNearest: each leftover merges into the minimum-stretch
///     group of `groups`, replacing it.  Absorption scans groups in stable
///     order with strict-minimum tie-breaking; an empty `groups` with a
///     non-empty tail raises std::logic_error.
///
/// Merges, stretch evaluations, discards and deletions accumulate into
/// `stats`.  Progress is reported in leftovers out of `tail.size()`;
/// cancellation is polled between leftovers.
[[nodiscard]] std::size_t reconcile_tail(std::vector<cdr::Fingerprint> tail,
                                         std::vector<cdr::Fingerprint>& groups,
                                         const core::GloveConfig& glove,
                                         core::GloveStats& stats,
                                         const util::RunHooks& hooks);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_RECONCILE_HPP
