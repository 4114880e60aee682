// The cross-shard reconciliation: the schedule planned from bounding
// geometry and group sizes alone (the streaming pipeline's pass-1
// residue) must partition the sub-k leftovers exactly as
// anonymize_chunked does, so the planned chunks reproduce it byte for
// byte, and the leftover-policy tail must keep the shared
// original-samples definition of deletion.

#include "glove/shard/reconcile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/scalability.hpp"

namespace glove::shard {
namespace {

/// A single-user fingerprint anchored at (x_km, y_km) km — far enough
/// apart per kilometre that the 1 km locality quantization orders anchors
/// exactly by their coordinates.
cdr::Fingerprint user_at(cdr::UserId id, double x_km, double y_km) {
  return cdr::Fingerprint{
      id, {test::cell(x_km * 1'000.0, y_km * 1'000.0, 10.0 * id)}};
}

std::vector<core::FingerprintBounds> bounds_of(
    const std::vector<cdr::Fingerprint>& fps) {
  std::vector<core::FingerprintBounds> bounds;
  bounds.reserve(fps.size());
  for (const cdr::Fingerprint& fp : fps) {
    bounds.push_back(core::fingerprint_bounds(fp));
  }
  return bounds;
}

std::vector<std::uint32_t> sizes_of(const std::vector<cdr::Fingerprint>& fps) {
  std::vector<std::uint32_t> sizes;
  sizes.reserve(fps.size());
  for (const cdr::Fingerprint& fp : fps) sizes.push_back(fp.group_size());
  return sizes;
}

/// The GLOVE parameters and shard layout a reconciliation runs with.
struct ReconcileSetup {
  core::GloveConfig glove;
  ShardConfig shard;
};

ReconcileSetup reconcile_setup(std::uint32_t k = 2,
                               std::size_t max_shard_users = 4) {
  ReconcileSetup setup;
  setup.glove.k = k;
  setup.shard.max_shard_users = max_shard_users;
  return setup;
}

ReconcilePlan plan_for(const std::vector<cdr::Fingerprint>& leftovers,
                       const ReconcileSetup& setup) {
  return plan_reconcile(bounds_of(leftovers), sizes_of(leftovers),
                        setup.glove.k, setup.shard);
}

TEST(ReconcilePlan, SplitsPassthroughAndLocalitySortedChunks) {
  // Leftovers in (shard, member) order: a >= k group first, then sub-k
  // singles placed so their locality order reverses their arrival order.
  std::vector<cdr::Fingerprint> leftovers;
  leftovers.push_back(cdr::Fingerprint{
      {100u, 101u}, {test::cell(0.0, 0.0, 0.0), test::cell(100.0, 0.0, 5.0)}});
  leftovers.push_back(user_at(0, 40.0, 0.0));
  leftovers.push_back(user_at(1, 30.0, 0.0));
  leftovers.push_back(user_at(2, 20.0, 0.0));
  leftovers.push_back(user_at(3, 10.0, 0.0));

  const ReconcilePlan plan = plan_for(
      leftovers, reconcile_setup(/*k=*/2, /*max_shard_users=*/2));

  EXPECT_EQ(plan.passthrough, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(plan.subk_count, 4u);
  EXPECT_TRUE(plan.tail.empty());
  // Morton order along one axis is coordinate order: positions 4, 3, 2, 1
  // (10, 20, 30, 40 km), split into chunks of max_shard_users = 2.
  ASSERT_EQ(plan.chunks.size(), 2u);
  EXPECT_EQ(plan.chunks[0], (std::vector<std::uint32_t>{4, 3}));
  EXPECT_EQ(plan.chunks[1], (std::vector<std::uint32_t>{2, 1}));
}

TEST(ReconcilePlan, NeverLeavesATailChunkSmallerThanK) {
  std::vector<cdr::Fingerprint> leftovers;
  for (cdr::UserId u = 0; u < 5; ++u) {
    leftovers.push_back(user_at(u, 10.0 * (u + 1), 0.0));
  }
  const ReconcilePlan plan = plan_for(
      leftovers, reconcile_setup(/*k=*/2, /*max_shard_users=*/4));
  // 5 sub-k members with chunk size 4: a naive split would leave a
  // 1-member tail < k, so the last chunk extends to hold all 5.
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].size(), 5u);
}

TEST(ReconcilePlan, FewerThanKSubKLeftoversBecomeTheTail) {
  std::vector<cdr::Fingerprint> leftovers;
  leftovers.push_back(user_at(0, 30.0, 0.0));
  leftovers.push_back(user_at(1, 10.0, 0.0));
  const ReconcilePlan plan = plan_for(leftovers, reconcile_setup(/*k=*/3));
  EXPECT_TRUE(plan.chunks.empty());
  // The tail keeps leftover order, not locality order.
  EXPECT_EQ(plan.tail, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(plan.subk_count, 2u);
}

TEST(ReconcilePlan, MisalignedSpansAreRejected) {
  std::vector<cdr::Fingerprint> leftovers{user_at(0, 1.0, 0.0)};
  const std::vector<std::uint32_t> sizes;  // wrong length
  EXPECT_THROW((void)plan_reconcile(bounds_of(leftovers), sizes, 2,
                                    reconcile_setup().shard),
               std::invalid_argument);
}

TEST(Reconcile, PlannedChunksMatchAnonymizeChunkedByteForByte) {
  // Run each planned chunk through pruned GLOVE (the streaming
  // pipeline's chunk job) and concatenate in plan order; the result must
  // be anonymize_chunked over the same sub-k set with chunk_size =
  // max(max_shard_users, k).  A >= k leftover leads the sequence, so the
  // plan's positions skip a pass-through.
  const cdr::FingerprintDataset data = test::small_synth_dataset(24);
  std::vector<cdr::Fingerprint> leftovers;
  leftovers.push_back(cdr::Fingerprint{
      {100u, 101u}, {test::cell(0.0, 0.0, 0.0), test::cell(100.0, 0.0, 5.0)}});
  leftovers.insert(leftovers.end(), data.fingerprints().begin(),
                   data.fingerprints().end());
  const ReconcileSetup setup = reconcile_setup(/*k=*/2, /*max_shard_users=*/5);

  const ReconcilePlan plan = plan_for(leftovers, setup);
  EXPECT_EQ(plan.passthrough, (std::vector<std::uint32_t>{0}));
  EXPECT_TRUE(plan.tail.empty());
  ASSERT_GE(plan.chunks.size(), 2u);  // the plan really splits the set
  std::vector<cdr::Fingerprint> planned;
  core::GloveStats stats;
  for (const std::vector<std::uint32_t>& chunk : plan.chunks) {
    std::vector<cdr::Fingerprint> members;
    for (const std::uint32_t position : chunk) {
      members.push_back(leftovers[position]);
    }
    core::GloveResult part = core::anonymize_pruned(
        cdr::FingerprintDataset{std::move(members)}, setup.glove);
    stats.accumulate_costs(part.stats);
    stats.input_users += part.stats.input_users;
    stats.input_samples += part.stats.input_samples;
    stats.output_groups += part.stats.output_groups;
    stats.output_samples += part.stats.output_samples;
    for (cdr::Fingerprint& fp : part.anonymized.mutable_fingerprints()) {
      planned.push_back(std::move(fp));
    }
  }

  core::ChunkedConfig chunked;
  chunked.chunk_size = std::max<std::size_t>(setup.shard.max_shard_users,
                                             setup.glove.k);
  const core::GloveResult whole = core::anonymize_chunked(
      cdr::FingerprintDataset{{leftovers.begin() + 1, leftovers.end()}},
      setup.glove, chunked);

  EXPECT_EQ(test::dataset_to_csv(cdr::FingerprintDataset{std::move(planned)}),
            test::dataset_to_csv(cdr::FingerprintDataset{
                {whole.anonymized.fingerprints().begin(),
                 whole.anonymized.fingerprints().end()}}));
  EXPECT_EQ(stats.merges, whole.stats.merges);
  EXPECT_EQ(stats.input_users, whole.stats.input_users);
  EXPECT_EQ(stats.input_samples, whole.stats.input_samples);
  EXPECT_EQ(stats.output_groups, whole.stats.output_groups);
  EXPECT_EQ(stats.output_samples, whole.stats.output_samples);
  EXPECT_EQ(stats.deleted_samples, whole.stats.deleted_samples);
}

TEST(Reconcile, SuppressedTailCountsOriginalSamplesDeleted) {
  // One sub-k leftover whose samples each represent two original samples
  // (a previously merged pair): suppression must count contributors, the
  // same definition the core greedy loop and the W4M trash bin use.
  std::vector<cdr::Sample> samples{test::cell(0.0, 0.0, 0.0),
                                   test::cell(100.0, 0.0, 5.0)};
  for (cdr::Sample& s : samples) s.contributors = 2;
  cdr::Fingerprint leftover{{7u}, std::move(samples)};
  const std::uint64_t original_samples = leftover.total_contributors();
  ASSERT_EQ(original_samples, 4u);

  std::vector<cdr::Fingerprint> tail;
  tail.push_back(std::move(leftover));
  std::vector<cdr::Fingerprint> anonymized;
  anonymized.push_back(cdr::Fingerprint{
      {1u, 2u}, {test::cell(0.0, 0.0, 0.0), test::cell(0.0, 100.0, 3.0)}});

  ReconcileSetup setup = reconcile_setup(/*k=*/2);
  setup.glove.leftover_policy = core::LeftoverPolicy::kSuppress;
  core::GloveStats stats;
  const std::size_t absorbed =
      reconcile_tail(std::move(tail), anonymized, setup.glove, stats, {});
  EXPECT_EQ(absorbed, 0u);
  EXPECT_EQ(stats.discarded_fingerprints, 1u);
  EXPECT_EQ(stats.deleted_samples, original_samples);
  EXPECT_EQ(anonymized.size(), 1u);  // nothing appended
}

TEST(Reconcile, AbsorbTailMergesIntoNearestGroup) {
  std::vector<cdr::Fingerprint> tail;
  tail.push_back(user_at(9, 0.1, 0.0));
  std::vector<cdr::Fingerprint> anonymized;
  anonymized.push_back(cdr::Fingerprint{
      {1u, 2u}, {test::cell(0.0, 0.0, 0.0), test::cell(100.0, 0.0, 3.0)}});
  anonymized.push_back(cdr::Fingerprint{
      {3u, 4u},
      {test::cell(90'000.0, 0.0, 0.0), test::cell(90'100.0, 0.0, 3.0)}});

  const ReconcileSetup setup = reconcile_setup(/*k=*/2);
  core::GloveStats stats;
  const std::size_t absorbed =
      reconcile_tail(std::move(tail), anonymized, setup.glove, stats, {});
  EXPECT_EQ(absorbed, 1u);
  EXPECT_EQ(stats.merges, 1u);
  ASSERT_EQ(anonymized.size(), 2u);
  // The co-located group (not the 90 km one) absorbed the leftover.
  EXPECT_EQ(anonymized[0].group_size(), 3u);
  EXPECT_EQ(anonymized[1].group_size(), 2u);
}

}  // namespace
}  // namespace glove::shard
