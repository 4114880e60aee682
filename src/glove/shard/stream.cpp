#include "glove/shard/stream.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "glove/core/scalability.hpp"
#include "glove/obs/log.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/shard/reconcile.hpp"
#include "glove/util/parallel.hpp"
#include "glove/util/thread_pool.hpp"

namespace glove::shard {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What pass 1 keeps per fingerprint: bounding geometry for tiling and
/// the border split, group size for the leftover accounting — never the
/// samples.
struct StreamScan {
  std::vector<core::FingerprintBounds> bounds;
  std::vector<std::uint32_t> group_sizes;
  std::uint64_t users = 0;
  std::uint64_t samples = 0;
};

/// Pass 1.  A source with neither index is read here, exactly once: the
/// scan copies it into `spill`, whose footer then serves the geometry
/// like any indexed source's, and every later pass fetches from the spill.
StreamScan scan_stream(api::DatasetSource& source,
                       std::unique_ptr<api::SourceSpill>& spill,
                       const util::RunHooks& hooks) {
  StreamScan scan;
  std::vector<cdr::FingerprintSummary> summaries;
  if (!source.summaries(summaries)) {
    if (const cdr::FingerprintDataset* data = source.materialized()) {
      // Materialized sources are scanned by index with parallel bounds
      // computation, no copies.
      scan.bounds.resize(data->size());
      util::parallel_for(
          data->size(),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              scan.bounds[i] = core::fingerprint_bounds((*data)[i]);
            }
          },
          /*min_chunk=*/64);
      scan.group_sizes.reserve(data->size());
      for (const cdr::Fingerprint& fp : data->fingerprints()) {
        scan.group_sizes.push_back(fp.group_size());
      }
      scan.users = data->total_users();
      scan.samples = data->total_samples();
      return scan;
    }
    spill = std::make_unique<api::SourceSpill>(source, hooks);
    spill->source().summaries(summaries);
  }
  // The index persisted the exact fingerprint_bounds fields, so the scan
  // is a footer read — no payload decode at all.
  scan.bounds.reserve(summaries.size());
  scan.group_sizes.reserve(summaries.size());
  for (const cdr::FingerprintSummary& s : summaries) {
    scan.bounds.push_back(core::FingerprintBounds{
        cdr::SpatialExtent{s.x, s.dx, s.y, s.dy},
        cdr::TemporalExtent{s.t, s.dt}});
    scan.group_sizes.push_back(s.group_size);
    scan.users += s.group_size;
    scan.samples += s.sample_count;
  }
  return scan;
}

/// The units a pass loop walks, each the dataset ids one unit
/// materializes: a shard's kept set in the shard-batch loop; the
/// pass-throughs, one GLOVE chunk or the policy tail in the reconcile
/// loop.
using Units = std::vector<const std::vector<std::uint32_t>*>;

/// One materialization pass, the step the shard-batch and reconcile loops
/// share.  The constructor closes the pass: units from `first` on join it
/// until the next one would push its members past `budget` (a single
/// oversized unit still forms a pass of its own).  materialize() then
/// makes the pass's fingerprints available to take(): a materialized()
/// source hands them out by index (one copy each); an indexed source (the
/// input's own index, or its spill) fetches exactly the pass's ids from
/// the blocks holding them.
class Pass {
 public:
  Pass(const Units& units, std::size_t first, std::size_t budget)
      : last{first}, first_{first}, units_{&units} {
    while (last < units.size()) {
      const std::size_t size = units[last]->size();
      if (last > first && members + size > budget) break;
      members += size;
      ++last;
    }
  }

  /// Materializes the pass's units out of `source`.  Returns whether the
  /// source was read; if so the pass's fingerprint count is appended to
  /// `pass_fingerprints`.
  bool materialize(api::DatasetSource& source,
                   std::vector<std::uint64_t>& pass_fingerprints) {
    inmem_ = source.materialized();
    if (inmem_ != nullptr) return false;
    slot_of_id_.reserve(members);
    std::uint32_t next_slot = 0;
    for (std::size_t u = first_; u < last; ++u) {
      for (const std::uint32_t id : *(*units_)[u]) {
        slot_of_id_[id] = next_slot++;
      }
    }
    store_.resize(next_slot);
    const std::optional<std::uint64_t> fetched =
        source.fetch(slot_of_id_, store_);
    if (!fetched) {
      throw std::logic_error{
          "a source that serves summaries() must serve fetch() too"};
    }
    if (*fetched != store_.size()) {
      throw util::DatasetError{
          "source fetched " + std::to_string(*fetched) + " of the " +
          std::to_string(store_.size()) + " fingerprints a pass requested"};
    }
    pass_fingerprints.push_back(*fetched);
    return true;
  }

  /// Hands out the fingerprint with dataset index `id` (once per id).
  cdr::Fingerprint take(std::uint32_t id) {
    if (inmem_ != nullptr) return (*inmem_)[id];
    return std::move(store_[slot_of_id_.at(id)]);
  }

  /// Frees the moved-from store once every member has been taken.
  void release() { store_ = {}; }

  std::size_t last;  ///< one past the pass's last unit
  std::size_t members = 0;

 private:
  std::size_t first_;
  const Units* units_;
  const cdr::FingerprintDataset* inmem_ = nullptr;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of_id_;
  std::vector<cdr::Fingerprint> store_;
};

/// One GLOVE job of a batch: a planned shard, or one halo-reconciliation
/// chunk.  Both run the same pruned GLOVE over `inputs`; the kind only
/// picks the trace span and the plane counters the job is billed to
/// (stream.shard / stream.shards_run vs stream.reconcile.chunk).
/// `progress`, when set, receives the job's inner GLOVE progress in that
/// run's own units, on a pool thread.
struct Job {
  bool reconcile_chunk = false;
  std::size_t index = 0;  ///< shard index, or chunk index in plan order
  std::vector<cdr::Fingerprint> inputs;
  util::ProgressFn progress;
};

/// What one job produced: the finalized groups, the cost counters the
/// caller folds via GloveStats::accumulate_costs, and the timing row (the
/// run report's per-shard row for shard jobs).
struct JobResult {
  ShardTiming timing;
  std::vector<cdr::Fingerprint> groups;
  core::GloveStats stats;
};

/// Called once per completed job, on a pool thread (the caller makes it
/// thread-safe); drives progress reporting.
using JobResultFn = std::function<void(const JobResult&)>;

/// Threads of the pool every batch runs on: `config.workers` (0 = the
/// shared-pool default), capped at `max_batch_jobs` — the larger of the
/// shard and reconcile-chunk counts — so no thread is idle by
/// construction.
std::size_t pool_size(const ShardConfig& config, std::size_t max_batch_jobs) {
  std::size_t requested = config.workers;
  if (requested == 0) requested = util::ThreadPool::shared().size();
  return std::min(std::max<std::size_t>(requested, 1),
                  std::max<std::size_t>(max_batch_jobs, 1));
}

/// Runs one batch (a shard batch, or one reconcile pass's chunks) on
/// `pool`, invoking `on_result` as each job completes and returning the
/// results in job order.  Identical jobs yield identical groups whatever
/// the pool size or scheduling.  Cancellation propagates from
/// `hooks.cancel` as util::CancelledError.
std::vector<JobResult> run_batch(util::ThreadPool& pool,
                                 const core::GloveConfig& glove,
                                 std::vector<Job> jobs,
                                 const JobResultFn& on_result,
                                 const util::RunHooks& hooks) {
  // Reconcile chunks are counted where the chunks are planned, never as
  // shards.
  static const obs::Counter c_shards = obs::counter("stream.shards_run");
  static const obs::Histogram h_shard_members =
      obs::histogram("stream.shard.members");

  std::vector<JobResult> results(jobs.size());
  util::parallel_for(
      pool, jobs.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          hooks.throw_if_cancelled();
          Job& job = jobs[j];
          JobResult& out = results[j];
          const std::size_t members = job.inputs.size();
          out.timing.shard = job.index;
          out.timing.input_fingerprints = members;
          if (job.inputs.empty()) continue;
          GLOVE_SPAN_NAMED(job_span, job.reconcile_chunk
                                         ? "stream.reconcile.chunk"
                                         : "stream.shard");
          job_span.arg(job.reconcile_chunk ? "chunk" : "shard", job.index);
          job_span.arg("members", members);
          if (!job.reconcile_chunk) {
            c_shards.add();
            h_shard_members.observe(members);
          }
          util::RunHooks inner;
          inner.cancel = hooks.cancel;
          inner.progress = std::move(job.progress);
          const auto start = Clock::now();
          core::GloveResult run = core::anonymize_pruned(
              cdr::FingerprintDataset{std::move(job.inputs)}, glove, inner);
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

}  // namespace

StreamShardedResult anonymize_sharded_stream(api::DatasetSource& source,
                                             const core::GloveConfig& glove,
                                             const ShardConfig& config,
                                             const GroupEmitter& emit,
                                             const util::RunHooks& hooks) {
  if (glove.k < 2) {
    throw std::invalid_argument{"GLOVE requires k >= 2"};
  }
  if (config.tile_size_m < 0.0) {
    throw std::invalid_argument{
        "sharded.tile_size_m must be positive (or 0 for adaptive)"};
  }
  if (config.halo_m < 0.0) {
    throw std::invalid_argument{"sharded.halo_m must be non-negative"};
  }
  if (config.max_shard_users < glove.k) {
    throw std::invalid_argument{"sharded.max_shard_users must be at least k"};
  }
  hooks.throw_if_cancelled();

  // Deterministic plane counters (counts only — they surface in the run
  // report's "obs" section); the per-shard counters live with the batch
  // runner, the reconcile-chunk counters here with the plan that forms
  // the chunks.
  static const obs::Counter c_batches = obs::counter("stream.shard_batches");
  static const obs::Counter c_chunks = obs::counter("stream.reconcile_chunks");

  StreamShardedResult result;

  // --- Pass 1: bounds-only scan, tile, plan, split borders.
  const auto plan_start = Clock::now();
  StreamScan scan;
  // Owns the private copy of a source without an index; removed on every
  // exit path, errors and cancellation included.
  std::unique_ptr<api::SourceSpill> spill;
  {
    GLOVE_SPAN_NAMED(pass1_span, "stream.pass1.scan");
    scan = scan_stream(source, spill, hooks);
    pass1_span.arg("fingerprints", scan.bounds.size());
    pass1_span.arg("users", scan.users);
    pass1_span.arg("samples", scan.samples);
  }
  const std::size_t n = scan.bounds.size();
  result.pass_fingerprints.push_back(n);
  if (n == 0) throw util::DatasetError{"input dataset is empty"};
  if (n < glove.k) {
    throw util::DatasetError{
        "dataset smaller than the target anonymity level k"};
  }
  // Every later pass reads here: the spill when pass 1 made one.
  api::DatasetSource& reader = spill ? spill->source() : source;
  result.stats.glove.input_users = scan.users;
  result.stats.glove.input_samples = scan.samples;

  const Tiling tiling = [&] {
    GLOVE_SPAN("stream.plan");
    return build_tiling_from_bounds(std::move(scan.bounds),
                                    config.tile_size_m,
                                    config.max_shard_users);
  }();
  // Downstream phases (border test, reconcile chunking) read the resolved
  // tile size from the config they are handed.
  ShardConfig resolved = config;
  resolved.tile_size_m = tiling.tile_size_m;
  result.stats.tile_size_m = tiling.tile_size_m;

  const ShardPlan plan = ShardPlanner{glove.k, resolved}.plan(tiling);
  const BorderSplit split = split_borders(tiling, plan, glove.k, resolved);
  const std::size_t shard_count = plan.shards.size();
  result.stats.tiles = plan.tiles;
  result.stats.shards = shard_count;

  result.shard_timings.resize(shard_count);
  std::size_t deferred_total = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    result.shard_timings[s].shard = s;
    result.shard_timings[s].input_fingerprints = split.kept[s].size();
    result.shard_timings[s].deferred = split.deferred[s].size();
    deferred_total += split.deferred[s].size();
  }
  result.stats.deferred_fingerprints = deferred_total;

  // The reconciliation is planned here, from pass-1 residue alone
  // (per-fingerprint bounds kept by the tiling, group sizes from the
  // scan): its chunk count sizes the pool next to the shard count,
  // and its tail decides the buffered mode below.  Leftovers are taken
  // in (shard, member) order; the returned plan addresses dataset ids,
  // like the shard split.
  const ReconcilePlan rplan = [&] {
    GLOVE_SPAN("stream.plan.reconcile");
    std::vector<std::uint32_t> leftover_ids;
    std::vector<core::FingerprintBounds> leftover_bounds;
    std::vector<std::uint32_t> leftover_sizes;
    leftover_ids.reserve(deferred_total);
    leftover_bounds.reserve(deferred_total);
    leftover_sizes.reserve(deferred_total);
    for (std::size_t s = 0; s < shard_count; ++s) {
      for (const std::uint32_t id : split.deferred[s]) {
        leftover_ids.push_back(id);
        leftover_bounds.push_back(tiling.bounds[id]);
        leftover_sizes.push_back(scan.group_sizes[id]);
      }
    }
    ReconcilePlan by_id = plan_reconcile(leftover_bounds, leftover_sizes,
                                         glove.k, resolved);
    const auto to_ids = [&](std::vector<std::uint32_t>& positions) {
      for (std::uint32_t& p : positions) p = leftover_ids[p];
    };
    to_ids(by_id.passthrough);
    for (std::vector<std::uint32_t>& chunk : by_id.chunks) to_ids(chunk);
    to_ids(by_id.tail);
    return by_id;
  }();
  result.stats.plan_seconds = seconds_since(plan_start);
  hooks.throw_if_cancelled();

  // Absorbing a sub-k tail (fewer than k deferred singles under
  // kMergeIntoNearest) rewrites the nearest already-finalized group, so
  // nothing may leave before reconciliation; that rare case holds the
  // output groups until the reconcile pass has absorbed the tail instead
  // of streaming them out.  Every other tail shape only appends, so
  // groups flow to the emitter as shards and chunks complete.
  const bool buffered =
      glove.leftover_policy == core::LeftoverPolicy::kMergeIntoNearest &&
      !rplan.tail.empty();

  std::uint64_t emitted_groups = 0;
  std::uint64_t emitted_samples = 0;
  const auto publish = [&](cdr::Fingerprint&& fp) {
    ++emitted_groups;
    emitted_samples += fp.size();
    emit(std::move(fp));
  };
  std::vector<cdr::Fingerprint> held;  // buffered mode only
  const auto deliver = [&](cdr::Fingerprint&& fp) {
    if (buffered) {
      held.push_back(std::move(fp));
    } else {
      publish(std::move(fp));
    }
  };

  // --- Passes 2..: materialize and run contiguous shard batches on the
  // in-process pool.  The batch budget caps resident fingerprints at
  // roughly one shard per pool worker, which also keeps the workers
  // busy.  The pool also runs the reconcile chunks, so it is sized for
  // whichever phase has more jobs: a plan with few shards but many
  // chunks still reconciles in parallel.
  util::ThreadPool pool{
      pool_size(resolved, std::max(shard_count, rplan.chunks.size()))};
  const std::size_t batch_budget =
      std::max<std::size_t>(resolved.max_shard_users * pool.size(), 1);

  const std::uint64_t total_work = n + 1;  // +1: the final reconcile tick
  hooks.report(0, total_work);
  std::mutex progress_mutex;
  std::uint64_t done = 0;

  Units shard_units;
  shard_units.reserve(shard_count);
  for (const std::vector<std::uint32_t>& kept : split.kept) {
    shard_units.push_back(&kept);
  }
  for (std::size_t first = 0; first < shard_count;) {
    Pass batch{shard_units, first, batch_budget};
    GLOVE_SPAN_NAMED(batch_span, "stream.shard_batch");
    batch_span.arg("first_shard", first);
    batch_span.arg("shards", batch.last - first);
    batch_span.arg("members", batch.members);
    c_batches.add();
    if (obs::log_verbose()) {
      obs::log_info("stream.batch",
                    obs::log_kv("first_shard", first) + ' ' +
                        obs::log_kv("shards", batch.last - first) + ' ' +
                        obs::log_kv("members", batch.members));
    }
    batch.materialize(reader, result.pass_fingerprints);

    // Turn the batch into shard jobs (empty kept sets run nothing and
    // keep their zeroed timing row); results come back in job = shard
    // order.
    std::vector<Job> jobs;
    jobs.reserve(batch.last - first);
    for (std::size_t s = first; s < batch.last; ++s) {
      if (split.kept[s].empty()) continue;
      Job& job = jobs.emplace_back();
      job.index = s;
      job.inputs.reserve(split.kept[s].size());
      for (const std::uint32_t id : split.kept[s]) {
        job.inputs.push_back(batch.take(id));
      }
    }
    batch.release();

    const JobResultFn on_result = [&](const JobResult& r) {
      const std::lock_guard lock{progress_mutex};
      done += r.timing.input_fingerprints;
      hooks.report(done, total_work);
    };
    std::vector<JobResult> batch_results = run_batch(
        pool, glove, std::move(jobs), on_result, hooks);

    for (JobResult& r : batch_results) {
      result.stats.glove.accumulate_costs(r.stats);
      ShardTiming& timing = result.shard_timings[r.timing.shard];
      timing.init_seconds = r.timing.init_seconds;
      timing.merge_seconds = r.timing.merge_seconds;
      timing.total_seconds = r.timing.total_seconds;
      timing.output_groups = r.timing.output_groups;
      for (cdr::Fingerprint& fp : r.groups) {
        deliver(std::move(fp));
      }
    }
    first = batch.last;
  }

  // --- Reconcile cross-shard leftovers: materialize one budget's worth
  // of reconcile units per pass — the leftover analogue of the
  // shard batches — and run the pass's GLOVE chunks as one batch.  Chunk
  // membership is fixed by the plan, so the chunks are independent jobs
  // exactly like shards.  No fingerprint is held before the pass that
  // consumes it.  Appended groups (deferred >= k pass-throughs, then the
  // chunks' output) trail the shard groups.
  hooks.throw_if_cancelled();
  GLOVE_SPAN_NAMED(reconcile_span, "stream.reconcile");
  reconcile_span.arg("deferred", deferred_total);
  const auto reconcile_start = Clock::now();

  // A pass covers a contiguous run of units in phase order: the >= k
  // pass-throughs, each GLOVE chunk, then the policy tail.
  Units units;
  units.reserve(rplan.chunks.size() + 2);
  if (!rplan.passthrough.empty()) units.push_back(&rplan.passthrough);
  for (const std::vector<std::uint32_t>& chunk : rplan.chunks) {
    units.push_back(&chunk);
  }
  if (!rplan.tail.empty()) units.push_back(&rplan.tail);
  const auto is_chunk = [&](std::size_t u) {
    return units[u] != &rplan.passthrough && units[u] != &rplan.tail;
  };
  const std::size_t reconcile_budget =
      resolved.reconcile_chunk_users > 0 ? resolved.reconcile_chunk_users
                                         : batch_budget;

  std::size_t next_chunk = 0;  // plan index of the pass's first chunk
  for (std::size_t first_u = 0; first_u < units.size();) {
    Pass pass{units, first_u, reconcile_budget};
    GLOVE_SPAN_NAMED(pass_span, "stream.reconcile.pass");
    pass_span.arg("units", pass.last - first_u);
    pass_span.arg("members", pass.members);
    if (obs::log_verbose()) {
      obs::log_info("stream.reconcile",
                    obs::log_kv("units", pass.last - first_u) + ' ' +
                        obs::log_kv("members", pass.members));
    }
    if (pass.materialize(reader, result.pass_fingerprints)) {
      ++result.stats.reconcile_passes;
    }

    // Units are contiguous in phase order, so a pass is: pass-throughs
    // (first pass only), then chunks, then the tail (last pass only).
    std::size_t u = first_u;
    if (u < pass.last && units[u] == &rplan.passthrough) {
      for (const std::uint32_t id : rplan.passthrough) {
        deliver(pass.take(id));
      }
      done += rplan.passthrough.size();
      hooks.report(done, total_work);
      ++u;
    }

    // The pass's chunks: one batch, results in plan order.  Per-chunk
    // progress (in util::subrange_hooks units) is summed across
    // concurrent chunks under the lock, so the reported total stays
    // monotone.
    const std::uint64_t chunk_base = done;
    std::uint64_t chunk_sum = 0;
    std::vector<std::uint64_t> chunk_done;
    const auto advance = [&](std::size_t j, std::uint64_t units_done) {
      if (units_done <= chunk_done[j]) return;
      chunk_sum += units_done - chunk_done[j];
      chunk_done[j] = units_done;
      hooks.report(chunk_base + chunk_sum, total_work);
    };
    std::vector<Job> jobs;
    for (; u < pass.last && is_chunk(u); ++u) {
      const std::size_t j = jobs.size();
      Job& job = jobs.emplace_back();
      job.reconcile_chunk = true;
      job.index = next_chunk + j;
      job.inputs.reserve(units[u]->size());
      for (const std::uint32_t id : *units[u]) {
        job.inputs.push_back(pass.take(id));
      }
      if (hooks.progress) {
        util::RunHooks forward;
        forward.progress = [&, j](std::uint64_t units_done, std::uint64_t) {
          const std::lock_guard lock{progress_mutex};
          advance(j, units_done);
        };
        job.progress = util::subrange_hooks(forward, 0, job.inputs.size(),
                                            total_work)
                           .progress;
      }
      c_chunks.add();
    }
    chunk_done.assign(jobs.size(), 0);
    if (!jobs.empty()) {
      const JobResultFn on_result = [&](const JobResult& r) {
        const std::lock_guard lock{progress_mutex};
        advance(r.timing.shard - next_chunk, r.timing.input_fingerprints);
      };
      std::vector<JobResult> chunk_results = run_batch(
          pool, glove, std::move(jobs), on_result, hooks);
      for (JobResult& r : chunk_results) {
        result.stats.glove.accumulate_costs(r.stats);
        result.stats.reconciled_groups += r.groups.size();
        done += r.timing.input_fingerprints;
        for (cdr::Fingerprint& fp : r.groups) deliver(std::move(fp));
      }
      next_chunk += chunk_results.size();
    }

    // The policy tail: suppressed, or absorbed into the held groups (a
    // non-empty tail means the plan has no chunks, so every group the
    // tail may join is already held).
    if (u < pass.last) {
      std::vector<cdr::Fingerprint> tail;
      tail.reserve(rplan.tail.size());
      for (const std::uint32_t id : rplan.tail) tail.push_back(pass.take(id));
      result.stats.absorbed_leftovers = reconcile_tail(
          std::move(tail), held, glove, result.stats.glove,
          util::subrange_hooks(hooks, done, rplan.tail.size(), total_work));
      done += rplan.tail.size();
    }
    first_u = pass.last;
  }
  result.stats.reconcile_seconds = seconds_since(reconcile_start);
  for (cdr::Fingerprint& fp : held) publish(std::move(fp));

  result.stats.glove.output_groups = emitted_groups;
  result.stats.glove.output_samples = emitted_samples;
  result.workers = pool.size();
  if (spill) result.spill_io = *spill->source().io_stats();
  hooks.report(total_work, total_work);
  return result;
}

}  // namespace glove::shard
