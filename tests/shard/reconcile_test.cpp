// The chunk-resumable reconciliation: the schedule planned from bounding
// geometry and group sizes alone (the streaming pipeline's pass-1
// residue) must reproduce the monolithic reconcile_leftovers byte for
// byte, and the leftover-policy counters must keep the shared
// original-samples definition of deletion.

#include "glove/shard/reconcile.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "glove/core/glove.hpp"

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

TEST(Reconcile, ChunkResumableMatchesMonolithicByteForByte) {
  // Drive the plan chunk by chunk (the streaming pipeline's shape) and
  // compare against one monolithic reconcile_leftovers call over the
  // same leftovers.
  const cdr::FingerprintDataset data = test::small_synth_dataset(24);
  std::vector<cdr::Fingerprint> leftovers{data.fingerprints().begin(),
                                          data.fingerprints().end()};
  const ReconcileSetup setup = reconcile_setup(/*k=*/2, /*max_shard_users=*/5);

  std::vector<cdr::Fingerprint> monolithic;
  const ReconcileStats whole = reconcile_leftovers(
      {data.fingerprints().begin(), data.fingerprints().end()}, monolithic,
      setup.glove, setup.shard, {});

  const ReconcilePlan plan = plan_for(leftovers, setup);
  ASSERT_GE(plan.chunks.size(), 2u);  // the resumable path really resumes
  std::vector<cdr::Fingerprint> resumable;
  ReconcileStats stats;
  for (const std::vector<std::uint32_t>& chunk : plan.chunks) {
    std::vector<cdr::Fingerprint> members;
    for (const std::uint32_t position : chunk) {
      members.push_back(std::move(leftovers[position]));
    }
    reconcile_chunk(
        std::move(members), setup.glove, stats,
        [&](cdr::Fingerprint&& fp) { resumable.push_back(std::move(fp)); },
        {});
  }

  EXPECT_EQ(test::dataset_to_csv(cdr::FingerprintDataset{std::move(resumable)}),
            test::dataset_to_csv(
                cdr::FingerprintDataset{std::move(monolithic)}));
  EXPECT_EQ(stats.reconciled_groups, whole.reconciled_groups);
  EXPECT_EQ(stats.glove.merges, whole.glove.merges);
  EXPECT_EQ(stats.glove.input_users, whole.glove.input_users);
  EXPECT_EQ(stats.glove.input_samples, whole.glove.input_samples);
  EXPECT_EQ(stats.glove.output_groups, whole.glove.output_groups);
  EXPECT_EQ(stats.glove.output_samples, whole.glove.output_samples);
  EXPECT_EQ(stats.glove.deleted_samples, whole.glove.deleted_samples);
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

  std::vector<cdr::Fingerprint> leftovers;
  leftovers.push_back(std::move(leftover));
  std::vector<cdr::Fingerprint> anonymized;
  anonymized.push_back(cdr::Fingerprint{
      {1u, 2u}, {test::cell(0.0, 0.0, 0.0), test::cell(0.0, 100.0, 3.0)}});

  ReconcileSetup setup = reconcile_setup(/*k=*/2);
  setup.glove.leftover_policy = core::LeftoverPolicy::kSuppress;
  const ReconcileStats stats = reconcile_leftovers(
      std::move(leftovers), anonymized, setup.glove, setup.shard, {});
  EXPECT_EQ(stats.glove.discarded_fingerprints, 1u);
  EXPECT_EQ(stats.glove.deleted_samples, original_samples);
  EXPECT_EQ(anonymized.size(), 1u);  // nothing appended
}

TEST(Reconcile, AbsorbTailMergesIntoNearestGroup) {
  std::vector<cdr::Fingerprint> leftovers;
  leftovers.push_back(user_at(9, 0.1, 0.0));
  std::vector<cdr::Fingerprint> anonymized;
  anonymized.push_back(cdr::Fingerprint{
      {1u, 2u}, {test::cell(0.0, 0.0, 0.0), test::cell(100.0, 0.0, 3.0)}});
  anonymized.push_back(cdr::Fingerprint{
      {3u, 4u},
      {test::cell(90'000.0, 0.0, 0.0), test::cell(90'100.0, 0.0, 3.0)}});

  const ReconcileSetup setup = reconcile_setup(/*k=*/2);
  const ReconcileStats stats = reconcile_leftovers(
      std::move(leftovers), anonymized, setup.glove, setup.shard, {});
  EXPECT_EQ(stats.absorbed, 1u);
  EXPECT_EQ(stats.glove.merges, 1u);
  ASSERT_EQ(anonymized.size(), 2u);
  // The co-located group (not the 90 km one) absorbed the leftover.
  EXPECT_EQ(anonymized[0].group_size(), 3u);
  EXPECT_EQ(anonymized[1].group_size(), 2u);
}

}  // namespace
}  // namespace glove::shard
