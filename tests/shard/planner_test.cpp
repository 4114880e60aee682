// ShardPlanner: every fingerprint lands in exactly one shard, shards
// respect the >= k floor and the max_shard_users budget (except where the
// floor or an oversized tile forces them over), and the cell-to-shard map
// covers every occupied tile.

#include "glove/shard/planner.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/fixtures.hpp"
#include "glove/shard/tiling.hpp"

namespace glove::shard {
namespace {

ShardConfig config_with(std::size_t max_users, double tile_m) {
  ShardConfig config;
  config.max_shard_users = max_users;
  config.tile_size_m = tile_m;
  return config;
}

void expect_partition(const ShardPlan& plan, std::size_t dataset_size) {
  std::vector<bool> seen(dataset_size, false);
  for (const PlannedShard& shard : plan.shards) {
    for (const std::uint32_t id : shard.members) {
      ASSERT_LT(id, dataset_size);
      EXPECT_FALSE(seen[id]) << "fingerprint " << id << " in two shards";
      seen[id] = true;
    }
  }
  for (std::size_t i = 0; i < dataset_size; ++i) {
    EXPECT_TRUE(seen[i]) << "fingerprint " << i << " unassigned";
  }
}

TEST(ShardPlanner, PartitionsEveryFingerprintOnce) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  const ShardConfig config = config_with(12, 10'000.0);
  const Tiling tiling = build_tiling(data, config.tile_size_m);
  const ShardPlan plan = ShardPlanner{2, config}.plan(tiling);

  EXPECT_GE(plan.shards.size(), 2u);
  expect_partition(plan, data.size());
  for (const PlannedShard& shard : plan.shards) {
    EXPECT_GE(shard.members.size(), 2u);
  }
}

TEST(ShardPlanner, CellMapCoversEveryTile) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(40);
  const ShardConfig config = config_with(10, 10'000.0);
  const Tiling tiling = build_tiling(data, config.tile_size_m);
  const ShardPlan plan = ShardPlanner{2, config}.plan(tiling);

  EXPECT_EQ(plan.tiles, tiling.tiles.size());
  EXPECT_EQ(plan.shard_of_cell.size(), tiling.tiles.size());
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    for (const geo::GridCell cell : plan.shards[s].cells) {
      const auto it = plan.shard_of_cell.find(cell);
      ASSERT_NE(it, plan.shard_of_cell.end());
      EXPECT_EQ(it->second, s);
    }
  }
}

TEST(ShardPlanner, RespectsBudgetUpToTheFloor) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  const ShardConfig config = config_with(15, 5'000.0);
  const Tiling tiling = build_tiling(data, config.tile_size_m);
  const ShardPlan plan = ShardPlanner{2, config}.plan(tiling);

  // A shard may exceed the budget only by one tile (closing happens when
  // the *next* tile would overflow) or through the tail fold; it can
  // never reach twice the budget unless a single tile is oversized.
  std::size_t biggest_tile = 0;
  for (const Tile& tile : tiling.tiles) {
    biggest_tile = std::max(biggest_tile, tile.members.size());
  }
  for (const PlannedShard& shard : plan.shards) {
    EXPECT_LE(shard.members.size(),
              2 * config.max_shard_users + biggest_tile);
  }
}

TEST(ShardPlanner, OversizedTileBecomesItsOwnShard) {
  // Everyone in one 100 m cell: a single tile far over budget must stay
  // whole (one shard), not be split across shards.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 30; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            test::cell(50.0, 50.0, 10.0 + u)});
  }
  const cdr::FingerprintDataset data{std::move(fps), "dense"};
  const ShardConfig config = config_with(8, 25'000.0);
  const Tiling tiling = build_tiling(data, config.tile_size_m);
  const ShardPlan plan = ShardPlanner{2, config}.plan(tiling);

  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].members.size(), 30u);
}

TEST(ShardPlanner, TailBelowKFoldsIntoPreviousShard) {
  // Two far-apart tiles: 6 users and 1 user, k = 2, budget 6.  The lone
  // tail cannot form a shard and folds back.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 6; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            test::cell(0.0, 0.0, 10.0 + u)});
  }
  fps.emplace_back(6u, std::vector<cdr::Sample>{
                           test::cell(200'000.0, 0.0, 10.0)});
  const cdr::FingerprintDataset data{std::move(fps), "tail"};
  const ShardConfig config = config_with(6, 25'000.0);
  const Tiling tiling = build_tiling(data, config.tile_size_m);
  const ShardPlan plan = ShardPlanner{2, config}.plan(tiling);

  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].members.size(), 7u);
  EXPECT_EQ(plan.shards[0].cells.size(), 2u);
}

TEST(ShardPlanner, RejectsDatasetSmallerThanK) {
  const cdr::FingerprintDataset data = test::paired_dataset();  // 7 users
  const ShardConfig config = config_with(200, 25'000.0);
  const Tiling tiling = build_tiling(data, config.tile_size_m);
  const ShardPlanner planner{/*k=*/100, config};
  EXPECT_THROW((void)planner.plan(tiling), std::invalid_argument);
}

}  // namespace
}  // namespace glove::shard
