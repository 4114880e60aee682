#include "glove/shard/shard.hpp"

#include <string>
#include <utility>

#include "glove/shard/stream.hpp"

namespace glove::shard {

std::string sharded_output_name(std::string_view base, std::uint32_t k) {
  return std::string{base} + "-sharded-k" + std::to_string(k);
}

ShardedResult anonymize_sharded(const cdr::FingerprintDataset& data,
                                const ShardConfig& config,
                                const util::RunHooks& hooks) {
  // One pipeline, two front doors: wrap the in-memory dataset in a
  // MemorySource and collect the emitted groups.  The streaming core is
  // the source of truth; this wrapper only restores the dataset-shaped
  // result (including its name) the legacy callers expect.
  api::MemorySource source{data};
  std::vector<cdr::Fingerprint> groups;
  StreamShardedResult streamed = anonymize_sharded_stream(
      source, config,
      [&](cdr::Fingerprint&& fp) { groups.push_back(std::move(fp)); }, hooks);

  ShardedResult result;
  result.anonymized = cdr::FingerprintDataset{
      std::move(groups), sharded_output_name(data.name(), config.glove.k)};
  result.stats = streamed.stats;
  result.shard_timings = std::move(streamed.shard_timings);
  return result;
}

}  // namespace glove::shard
