#include "glove/shard/exec/inprocess.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "glove/cdr/dataset.hpp"
#include "glove/core/scalability.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/util/parallel.hpp"

namespace glove::shard::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The trace span a job runs under: reconcile chunks must never be billed
/// to the shard layer.
const char* span_name(JobKind kind) {
  return kind == JobKind::kShard ? "stream.shard" : "stream.reconcile.chunk";
}

}  // namespace

InProcessExecutor::InProcessExecutor(const ShardConfig& config,
                                     std::size_t max_batch_jobs)
    : glove_{config.glove},
      scheduler_{[&] {
        std::size_t requested = config.workers;
        if (requested == 0) requested = util::ThreadPool::shared().size();
        return std::min(std::max<std::size_t>(requested, 1),
                        std::max<std::size_t>(max_batch_jobs, 1));
      }()} {}

std::vector<ShardResult> InProcessExecutor::run_batch(
    std::vector<ShardJob> jobs, const ShardResultFn& on_result,
    const util::RunHooks& hooks) {
  // Same deterministic plane counters the pre-seam batch loop kept (the
  // totals surface in the run report's "obs" section).  Reconcile chunks
  // are counted by the stream that plans them, never as shards.
  static const obs::Counter c_shards = obs::counter("stream.shards_run");
  static const obs::Histogram h_shard_members =
      obs::histogram("stream.shard.members");

  std::vector<ShardResult> results(jobs.size());
  util::parallel_for(
      scheduler_, jobs.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          hooks.throw_if_cancelled();
          ShardJob& job = jobs[j];
          ShardResult& out = results[j];
          const std::size_t members = job.inputs.size();
          out.timing.shard = job.shard;
          out.timing.input_fingerprints = members;
          if (job.inputs.empty()) continue;
          const bool shard = job.kind == JobKind::kShard;
          GLOVE_SPAN_NAMED(job_span, span_name(job.kind));
          job_span.arg(shard ? "shard" : "chunk", job.shard);
          job_span.arg("members", members);
          if (shard) {
            c_shards.add();
            h_shard_members.observe(members);
          }
          util::RunHooks inner;
          inner.cancel = hooks.cancel;
          inner.progress = std::move(job.progress);
          const auto start = Clock::now();
          core::GloveResult run = core::anonymize_pruned(
              cdr::FingerprintDataset{std::move(job.inputs)}, glove_, inner);
          out.timing.init_seconds = run.stats.init_seconds;
          out.timing.merge_seconds = run.stats.merge_seconds;
          out.timing.total_seconds = seconds_since(start);
          out.timing.output_groups = run.anonymized.size();
          job_span.arg("groups", run.anonymized.size());
          out.groups = std::move(run.anonymized.mutable_fingerprints());
          out.stats = run.stats;
          on_result(out);
        }
      },
      /*min_chunk=*/1);
  return results;
}

}  // namespace glove::shard::exec
