#include "glove/shard/reconcile.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "glove/core/merge.hpp"
#include "glove/util/parallel.hpp"

namespace glove::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// Merges one sub-k leftover into the minimum-stretch group of
/// `anonymized`, pruning the scan with the cached group bounds (exactly
/// the lazy-lower-bound trick of `anonymize_pruned`, applied to the
/// absorb scan).  Candidates pop from a min-heap in ascending
/// (lower bound, group) order — the same visitation order a full sort
/// would give, but only the prefix up to the first bound >= the current
/// best true stretch is ever ordered, so the per-leftover cost is the
/// O(G) heap build plus O(log G) per evaluated candidate instead of a
/// full O(G log G) sort.
void absorb_into_nearest(cdr::Fingerprint leftover,
                         std::vector<cdr::Fingerprint>& anonymized,
                         std::vector<core::FingerprintBounds>& group_bounds,
                         const core::GloveConfig& glove,
                         ReconcileStats& stats) {
  const core::FingerprintBounds bounds = core::fingerprint_bounds(leftover);
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(anonymized.size());
  for (std::size_t g = 0; g < anonymized.size(); ++g) {
    order.emplace_back(core::stretch_lower_bound(bounds, group_bounds[g],
                                                 glove.limits),
                       g);
  }
  std::make_heap(order.begin(), order.end(), std::greater<>{});

  std::size_t best_g = order.front().second;
  double best = std::numeric_limits<double>::infinity();
  while (!order.empty()) {
    std::pop_heap(order.begin(), order.end(), std::greater<>{});
    const auto [lb, g] = order.back();
    order.pop_back();
    if (lb >= best) break;  // ascending bounds: no later candidate can win
    const double d = core::fingerprint_stretch(leftover, anonymized[g],
                                               glove.limits);
    ++stats.glove.stretch_evaluations;
    if (d < best) {
      best = d;
      best_g = g;
    }
  }

  core::MergeOptions options;
  options.limits = glove.limits;
  options.reshape = glove.reshape;
  options.suppression = glove.suppression;
  core::MergeStats merge_stats;
  anonymized[best_g] = core::merge_fingerprints(leftover, anonymized[best_g],
                                                options, &merge_stats);
  group_bounds[best_g] = core::fingerprint_bounds(anonymized[best_g]);
  stats.glove.deleted_samples += merge_stats.suppressed_original_samples;
  ++stats.glove.merges;
  ++stats.absorbed;
}

}  // namespace

ReconcilePlan plan_reconcile(std::span<const core::FingerprintBounds> bounds,
                             std::span<const std::uint32_t> group_sizes,
                             std::uint32_t k, const ShardConfig& config) {
  if (bounds.size() != group_sizes.size()) {
    throw std::invalid_argument{
        "plan_reconcile: bounds and group_sizes must align"};
  }
  ReconcilePlan plan;

  // Split into pass-throughs and locality keys, both in leftover order.
  // Positions ascend within the sub-k subsequence, so breaking sort ties
  // by position reproduces anonymize_chunked's (morton, dataset-index)
  // ordering over the sub-k dataset exactly.
  struct Key {
    std::uint64_t morton;
    std::uint32_t position;
  };
  std::vector<Key> keys;
  for (std::uint32_t i = 0; i < group_sizes.size(); ++i) {
    if (group_sizes[i] >= k) {
      plan.passthrough.push_back(i);
    } else {
      keys.push_back(Key{core::locality_sort_key(bounds[i]), i});
    }
  }
  plan.subk_count = keys.size();

  if (keys.size() < k) {
    // Not enough sub-k leftovers for a GLOVE run of their own: the
    // leftover-policy tail, still in leftover order.
    plan.tail.reserve(keys.size());
    for (const Key& key : keys) plan.tail.push_back(key.position);
    return plan;
  }

  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.morton != b.morton) return a.morton < b.morton;
    return a.position < b.position;
  });

  const std::size_t chunk_size =
      std::max<std::size_t>(config.max_shard_users, k);
  std::size_t begin = 0;
  while (begin < keys.size()) {
    std::size_t end = std::min(begin + chunk_size, keys.size());
    // Never leave a tail smaller than k: extend the last chunk instead.
    if (keys.size() - end < k && end < keys.size()) {
      end = keys.size();
    }
    std::vector<std::uint32_t> chunk;
    chunk.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      chunk.push_back(keys[i].position);
    }
    plan.chunks.push_back(std::move(chunk));
    begin = end;
  }
  return plan;
}

void count_suppressed_leftover(const cdr::Fingerprint& leftover,
                               ReconcileStats& stats) {
  stats.glove.discarded_fingerprints += leftover.group_size();
  stats.glove.deleted_samples += leftover.total_contributors();
}

void reconcile_chunk(std::vector<cdr::Fingerprint> members,
                     const core::GloveConfig& glove, ReconcileStats& stats,
                     const std::function<void(cdr::Fingerprint&&)>& emit,
                     const util::RunHooks& hooks) {
  core::GloveResult part = core::anonymize_pruned(
      cdr::FingerprintDataset{std::move(members)}, glove, hooks);
  stats.glove.accumulate_costs(part.stats);
  // Dataset-shape fields sum across chunks (the chunks partition the
  // sub-k set, so the totals equal one anonymize_chunked run over it).
  stats.glove.input_users += part.stats.input_users;
  stats.glove.input_samples += part.stats.input_samples;
  stats.glove.output_groups += part.stats.output_groups;
  stats.glove.output_samples += part.stats.output_samples;
  stats.reconciled_groups += part.anonymized.size();
  for (cdr::Fingerprint& fp : part.anonymized.mutable_fingerprints()) {
    emit(std::move(fp));
  }
}

ReconcileStats reconcile_leftovers(std::vector<cdr::Fingerprint> leftovers,
                                   std::vector<cdr::Fingerprint>& anonymized,
                                   const core::GloveConfig& glove,
                                   const ShardConfig& config,
                                   const util::RunHooks& hooks) {
  ReconcileStats stats;
  const auto start = Clock::now();

  std::vector<core::FingerprintBounds> bounds(leftovers.size());
  std::vector<std::uint32_t> group_sizes(leftovers.size());
  util::parallel_for(
      leftovers.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          bounds[i] = core::fingerprint_bounds(leftovers[i]);
          group_sizes[i] = leftovers[i].group_size();
        }
      },
      /*min_chunk=*/64);
  const ReconcilePlan plan =
      plan_reconcile(bounds, group_sizes, glove.k, config);

  const auto total = static_cast<std::uint64_t>(leftovers.size());
  std::uint64_t done = 0;

  // Deferred groups already hiding >= k users (possible when the input is
  // a re-anonymization) need no further work.
  for (const std::uint32_t position : plan.passthrough) {
    anonymized.push_back(std::move(leftovers[position]));
  }
  if (!plan.passthrough.empty()) {
    done += plan.passthrough.size();
    hooks.report(done, total);
  }

  // Enough deferred fingerprints to anonymize among themselves: GLOVE
  // over locality-sorted chunks so far-apart border strips do not blow
  // the pair matrix up, with pruned (exact) per-chunk initialization.
  // Border fingerprints from adjacent tiles sort next to each other here,
  // restoring the cross-tile candidate pairs.
  for (const std::vector<std::uint32_t>& chunk : plan.chunks) {
    hooks.throw_if_cancelled();
    std::vector<cdr::Fingerprint> members;
    members.reserve(chunk.size());
    for (const std::uint32_t position : chunk) {
      members.push_back(std::move(leftovers[position]));
    }
    reconcile_chunk(
        std::move(members), glove, stats,
        [&](cdr::Fingerprint&& fp) { anonymized.push_back(std::move(fp)); },
        util::subrange_hooks(hooks, done, chunk.size(), total));
    done += chunk.size();
    hooks.report(done, total);
  }

  // Fewer than k deferred fingerprints: the configured leftover policy
  // decides, mirroring the core greedy loop's tail handling.
  if (!plan.tail.empty()) {
    switch (glove.leftover_policy) {
      case core::LeftoverPolicy::kMergeIntoNearest: {
        if (anonymized.empty()) {
          // Unreachable for validated inputs: an empty shard output means
          // every fingerprint was deferred, i.e. subk_count >= k.
          throw std::logic_error{"no shard output to absorb leftovers into"};
        }
        std::vector<core::FingerprintBounds> group_bounds(anonymized.size());
        util::parallel_for(
            anonymized.size(),
            [&](std::size_t begin, std::size_t end) {
              for (std::size_t g = begin; g < end; ++g) {
                group_bounds[g] = core::fingerprint_bounds(anonymized[g]);
              }
            },
            /*min_chunk=*/64);
        for (const std::uint32_t position : plan.tail) {
          hooks.throw_if_cancelled();
          absorb_into_nearest(std::move(leftovers[position]), anonymized,
                              group_bounds, glove, stats);
          hooks.report(++done, total);
        }
        break;
      }
      case core::LeftoverPolicy::kSuppress: {
        for (const std::uint32_t position : plan.tail) {
          count_suppressed_leftover(leftovers[position], stats);
          hooks.report(++done, total);
        }
        break;
      }
    }
  }

  stats.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return stats;
}

}  // namespace glove::shard
