#include "glove/shard/exec/executor.hpp"

#include <stdexcept>

#include "glove/shard/exec/inprocess.hpp"
#include "glove/shard/exec/process_pool.hpp"

namespace glove::shard::exec {

std::string_view executor_kind_name(ExecutorKind kind) noexcept {
  switch (kind) {
    case ExecutorKind::kInProcess:
      return "inprocess";
    case ExecutorKind::kProcess:
      return "process";
  }
  return "unknown";
}

std::unique_ptr<ShardExecutor> make_shard_executor(
    const ShardConfig& config, const std::optional<std::string>& source_path,
    std::uint64_t total_fingerprints, std::size_t max_batch_jobs) {
  switch (config.executor) {
    case ExecutorKind::kInProcess:
      return std::make_unique<InProcessExecutor>(config, max_batch_jobs);
    case ExecutorKind::kProcess:
      if (!source_path.has_value()) {
        throw std::invalid_argument{
            "--executor=process requires a file-backed dataset source (csv "
            "or glovebin): workers re-read their shard slices from the "
            "shared file, which an in-memory source does not have"};
      }
      return std::make_unique<ProcessPoolExecutor>(
          config, *source_path, total_fingerprints, max_batch_jobs);
  }
  throw std::invalid_argument{"unknown shard executor kind"};
}

}  // namespace glove::shard::exec
