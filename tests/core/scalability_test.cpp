#include "glove/core/scalability.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>

#include "common/golden.hpp"
#include "glove/synth/generator.hpp"

namespace glove::core {
namespace {

cdr::Sample cell(double x, double y, double t) {
  cdr::Sample s;
  s.sigma = cdr::SpatialExtent{x, 100.0, y, 100.0};
  s.tau = cdr::TemporalExtent{t, 1.0};
  return s;
}

TEST(FingerprintBounds, CoversAllSamples) {
  const cdr::Fingerprint fp{0u, {cell(0, 0, 10), cell(5'000, -2'000, 600),
                                 cell(1'000, 3'000, 100)}};
  const FingerprintBounds b = fingerprint_bounds(fp);
  EXPECT_DOUBLE_EQ(b.box.x, 0.0);
  EXPECT_DOUBLE_EQ(b.box.x_end(), 5'100.0);
  EXPECT_DOUBLE_EQ(b.box.y, -2'000.0);
  EXPECT_DOUBLE_EQ(b.box.y_end(), 3'100.0);
  EXPECT_DOUBLE_EQ(b.interval.t, 10.0);
  EXPECT_DOUBLE_EQ(b.interval.t_end(), 601.0);
}

TEST(StretchLowerBound, ZeroForOverlappingBoxes) {
  const cdr::Fingerprint a{0u, {cell(0, 0, 10), cell(2'000, 0, 100)}};
  const cdr::Fingerprint b{1u, {cell(1'000, 0, 50)}};
  EXPECT_DOUBLE_EQ(stretch_lower_bound(fingerprint_bounds(a),
                                       fingerprint_bounds(b), {}),
                   0.0);
}

TEST(StretchLowerBound, NeverExceedsTrueStretch) {
  // Soundness on a spread of geometries.
  const std::vector<cdr::Fingerprint> fps{
      cdr::Fingerprint{0u, {cell(0, 0, 10), cell(500, 0, 300)}},
      cdr::Fingerprint{1u, {cell(30'000, 0, 20)}},
      cdr::Fingerprint{2u, {cell(5'000, 5'000, 5'000)}},
      cdr::Fingerprint{3u, {cell(100, 100, 11'000), cell(0, 0, 12'000)}},
  };
  for (const auto& a : fps) {
    for (const auto& b : fps) {
      const double lb = stretch_lower_bound(fingerprint_bounds(a),
                                            fingerprint_bounds(b), {});
      const double d = fingerprint_stretch(a, b, {});
      EXPECT_LE(lb, d + 1e-12);
    }
  }
}

TEST(KGapsPruned, MatchesBruteForceGaps) {
  synth::SynthConfig config = synth::civ_like(60, 37);
  config.days = 3.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  const auto brute = k_gaps(data, 3);
  std::uint64_t pruned = 0;
  const auto fast = k_gaps_pruned(data, 3, {}, &pruned);
  ASSERT_EQ(brute.size(), fast.size());
  for (std::size_t i = 0; i < brute.size(); ++i) {
    EXPECT_DOUBLE_EQ(brute[i].gap, fast[i].gap);
  }
}

TEST(KGapsPruned, ActuallyPrunesSpreadData) {
  // Users in two far-apart cities: cross-city pairs must be skipped.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 10; ++u) {
    const double base = u < 5 ? 0.0 : 400'000.0;
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            cell(base + u * 100.0, 0, u * 10.0),
                            cell(base + u * 100.0, 0, 700 + u * 10.0)});
  }
  std::uint64_t pruned = 0;
  (void)k_gaps_pruned(cdr::FingerprintDataset{std::move(fps)}, 2, {},
                      &pruned);
  EXPECT_GT(pruned, 0u);
}

TEST(KGapsPruned, RejectsInvalidArguments) {
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(0u, std::vector<cdr::Sample>{cell(0, 0, 0)});
  const cdr::FingerprintDataset data{std::move(fps)};
  EXPECT_THROW((void)k_gaps_pruned(data, 2), std::invalid_argument);
}

TEST(ChunkedGlove, AchievesKAnonymityPerChunk) {
  synth::SynthConfig config = synth::civ_like(80, 41);
  config.days = 3.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  GloveConfig glove;
  glove.k = 2;
  ChunkedConfig chunked;
  chunked.chunk_size = 20;
  const GloveResult result = anonymize_chunked(data, glove, chunked);
  EXPECT_TRUE(is_k_anonymous(result.anonymized, 2));
  EXPECT_EQ(result.anonymized.total_users(), data.total_users());
}

TEST(ChunkedGlove, NoUserLostAcrossChunks) {
  synth::SynthConfig config = synth::civ_like(50, 43);
  config.days = 2.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  ChunkedConfig chunked;
  chunked.chunk_size = 15;
  const GloveResult result = anonymize_chunked(data, {}, chunked);
  std::set<cdr::UserId> users;
  for (const auto& fp : result.anonymized.fingerprints()) {
    users.insert(fp.members().begin(), fp.members().end());
  }
  EXPECT_EQ(users.size(), data.size());
}

TEST(ChunkedGlove, TailSmallerThanKAbsorbedIntoLastChunk) {
  // 11 users with chunk size 5 and k = 3: the final 1-user tail must be
  // folded into the previous chunk, not anonymized alone.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 11; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            cell(u * 300.0, 0, u * 50.0)});
  }
  GloveConfig glove;
  glove.k = 3;
  ChunkedConfig chunked;
  chunked.chunk_size = 5;
  const GloveResult result = anonymize_chunked(
      cdr::FingerprintDataset{std::move(fps)}, glove, chunked);
  EXPECT_TRUE(is_k_anonymous(result.anonymized, 3));
  EXPECT_EQ(result.anonymized.total_users(), 11u);
}

TEST(ChunkedGlove, SingleChunkEqualsPlainGlove) {
  synth::SynthConfig config = synth::civ_like(30, 47);
  config.days = 2.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  const GloveConfig glove;
  ChunkedConfig chunked;
  chunked.chunk_size = 1'000;  // everything in one chunk
  const GloveResult plain = anonymize(data, glove);
  const GloveResult one_chunk = anonymize_chunked(data, glove, chunked);
  EXPECT_EQ(one_chunk.anonymized.size(), plain.anonymized.size());
  EXPECT_EQ(one_chunk.stats.merges, plain.stats.merges);
}

TEST(ChunkedGlove, RejectsBadConfig) {
  synth::SynthConfig config = synth::civ_like(20, 49);
  config.days = 1.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  GloveConfig glove;
  glove.k = 5;
  ChunkedConfig chunked;
  chunked.chunk_size = 3;
  EXPECT_THROW((void)anonymize_chunked(data, glove, chunked),
               std::invalid_argument);
}

TEST(PrunedGlove, MovedInputMatchesCopiedInputByteForByte) {
  // The rvalue overload adopts the input fingerprints as its node store
  // (and frees merged-away nodes early); bytes and every counter must
  // equal the copying overload, for both leftover policies.
  synth::SynthConfig config = synth::civ_like(60, 53);
  config.days = 2.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  for (const LeftoverPolicy policy :
       {LeftoverPolicy::kMergeIntoNearest, LeftoverPolicy::kSuppress}) {
    GloveConfig glove;
    glove.k = 3;
    glove.leftover_policy = policy;
    const GloveResult copied = anonymize_pruned(data, glove);
    cdr::FingerprintDataset input = data;
    const GloveResult moved = anonymize_pruned(std::move(input), glove);
    EXPECT_EQ(test::dataset_to_csv(moved.anonymized),
              test::dataset_to_csv(copied.anonymized));
    EXPECT_EQ(moved.anonymized.name(), copied.anonymized.name());
    EXPECT_EQ(moved.stats.input_users, copied.stats.input_users);
    EXPECT_EQ(moved.stats.input_samples, copied.stats.input_samples);
    EXPECT_EQ(moved.stats.output_groups, copied.stats.output_groups);
    EXPECT_EQ(moved.stats.output_samples, copied.stats.output_samples);
    EXPECT_EQ(moved.stats.merges, copied.stats.merges);
    EXPECT_EQ(moved.stats.deleted_samples, copied.stats.deleted_samples);
    EXPECT_EQ(moved.stats.discarded_fingerprints,
              copied.stats.discarded_fingerprints);
    EXPECT_EQ(moved.stats.stretch_evaluations,
              copied.stats.stretch_evaluations);
    // Pruning stays exact: the all-exact run publishes the same bytes.
    EXPECT_EQ(test::dataset_to_csv(anonymize(data, glove, {}).anonymized),
              test::dataset_to_csv(copied.anonymized));
  }
}

}  // namespace
}  // namespace glove::core
