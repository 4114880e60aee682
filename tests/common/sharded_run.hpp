// Runs the sharded pipeline over an in-memory dataset the way the Engine's
// sharded strategy does: the dataset goes in as an api::MemorySource and
// the emitted groups come back as one dataset, named like the Engine's
// output.  The shard suites compare this reference against streamed runs
// and the blessed golden.

#ifndef GLOVE_TESTS_COMMON_SHARDED_RUN_HPP
#define GLOVE_TESTS_COMMON_SHARDED_RUN_HPP

#include <utility>
#include <vector>

#include "glove/api/source.hpp"
#include "glove/shard/stream.hpp"

namespace glove::test {

struct ShardedRun {
  cdr::FingerprintDataset anonymized;
  shard::ShardedStats stats;
};

[[nodiscard]] inline ShardedRun run_sharded(
    const cdr::FingerprintDataset& data, const core::GloveConfig& glove,
    const shard::ShardConfig& config) {
  api::MemorySource source{data};
  std::vector<cdr::Fingerprint> groups;
  shard::StreamShardedResult result = shard::anonymize_sharded_stream(
      source, glove, config,
      [&groups](cdr::Fingerprint&& fp) { groups.push_back(std::move(fp)); });
  return ShardedRun{
      cdr::FingerprintDataset{
          std::move(groups),
          shard::sharded_output_name(data.name(), glove.k)},
      result.stats};
}

}  // namespace glove::test

#endif  // GLOVE_TESTS_COMMON_SHARDED_RUN_HPP
