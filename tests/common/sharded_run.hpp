// Runs the sharded pipeline over an in-memory dataset the way the Engine's
// sharded strategy does: the dataset goes in as an api::MemorySource and
// the emitted groups come back as one dataset, named like the Engine's
// output.  The shard suites compare this reference against streamed runs
// and the blessed golden.  Also reads the pass list a read-once run must
// report off that run's trace.

#ifndef GLOVE_TESTS_COMMON_SHARDED_RUN_HPP
#define GLOVE_TESTS_COMMON_SHARDED_RUN_HPP

#include <cstdint>
#include <regex>
#include <string>
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

/// The pass_fingerprints a run that read its source once must report:
/// the planning scan's `n`, then exactly the members each shard-batch and
/// reconcile pass announced on its span, in pass order, read off the
/// rendered trace (`trace`) of that run.
[[nodiscard]] inline std::vector<std::uint64_t> read_once_passes(
    std::uint64_t n, const std::string& trace) {
  // The exporter's fixed key order puts a span's args after its tid; the
  // pass spans all close on the run's calling thread, in pass order.
  const std::regex pass_end{
      R"re("name": "stream\.(?:shard_batch|reconcile\.pass)","cat": )re"
      R"re("glove","ph": "E"[^}]*"members": (\d+))re"};
  std::vector<std::uint64_t> passes{n};
  for (auto it = std::sregex_iterator(trace.begin(), trace.end(), pass_end);
       it != std::sregex_iterator(); ++it) {
    passes.push_back(std::stoull((*it)[1].str()));
  }
  return passes;
}

}  // namespace glove::test

#endif  // GLOVE_TESTS_COMMON_SHARDED_RUN_HPP
