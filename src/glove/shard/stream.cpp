#include "glove/shard/stream.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
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

StreamScan scan_stream(api::DatasetSource& source,
                       const util::RunHooks& hooks) {
  StreamScan scan;
  if (std::vector<cdr::FingerprintSummary> summaries;
      source.summaries(summaries)) {
    // Index-capable sources persisted the exact fingerprint_bounds
    // fields, so pass 1 is a footer read — no payload decode at all.
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
  cdr::Fingerprint fp;
  while (source.next(fp)) {
    if ((scan.bounds.size() & 0x3FFu) == 0) hooks.throw_if_cancelled();
    scan.bounds.push_back(core::fingerprint_bounds(fp));
    scan.group_sizes.push_back(fp.group_size());
    scan.users += fp.group_size();
    scan.samples += fp.size();
  }
  return scan;
}

/// Re-reads the whole stream, materializing only the fingerprints whose
/// dataset index appears in `slot_of_id` (into `store`, slot-addressed).
/// Returns the number of fingerprints the pass yielded.
std::uint64_t materialize_pass(
    api::DatasetSource& source,
    const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
    std::vector<cdr::Fingerprint>& store, std::size_t expected,
    const util::RunHooks& hooks) {
  // Index-capable sources seek straight to the blocks holding the
  // requested fingerprints; the pass then "streamed" only those.
  if (const std::optional<std::uint64_t> fetched =
          source.fetch(slot_of_id, store)) {
    return *fetched;
  }
  source.rewind();
  cdr::Fingerprint fp;
  std::uint64_t index = 0;
  while (source.next(fp)) {
    if ((index & 0x3FFu) == 0) hooks.throw_if_cancelled();
    if (index < expected) {
      const auto it = slot_of_id.find(static_cast<std::uint32_t>(index));
      if (it != slot_of_id.end()) store[it->second] = std::move(fp);
    }
    ++index;
    if (index > expected) break;  // grew — diagnosed below
  }
  if (index != expected) {
    throw util::DatasetError{
        "streaming source yielded a different number of fingerprints after "
        "rewind (got " + std::to_string(index) +
        (index > expected ? "+" : "") + ", planned " +
        std::to_string(expected) + ")"};
  }
  return index;
}

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
  {
    GLOVE_SPAN_NAMED(pass1_span, "stream.pass1.scan");
    scan = scan_stream(source, hooks);
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
  // and its tail decides the buffered mode below.  Leftover ids are in
  // (shard, member) order — the exact sequence the buffered path
  // materializes.
  std::vector<std::uint32_t> leftover_ids;
  leftover_ids.reserve(deferred_total);
  for (std::size_t s = 0; s < shard_count; ++s) {
    for (const std::uint32_t id : split.deferred[s]) {
      leftover_ids.push_back(id);
    }
  }
  const ReconcilePlan rplan = [&] {
    GLOVE_SPAN("stream.plan.reconcile");
    std::vector<core::FingerprintBounds> leftover_bounds;
    std::vector<std::uint32_t> leftover_sizes;
    leftover_bounds.reserve(leftover_ids.size());
    leftover_sizes.reserve(leftover_ids.size());
    for (const std::uint32_t id : leftover_ids) {
      leftover_bounds.push_back(tiling.bounds[id]);
      leftover_sizes.push_back(scan.group_sizes[id]);
    }
    return plan_reconcile(leftover_bounds, leftover_sizes, glove.k,
                          resolved);
  }();
  result.stats.plan_seconds = seconds_since(plan_start);
  hooks.throw_if_cancelled();

  // Absorbing a sub-k tail (fewer than k deferred singles under
  // kMergeIntoNearest) rewrites the nearest already-finalized group, so
  // nothing may leave before reconciliation; that rare case buffers the
  // output groups instead of streaming them out (and materializes its
  // leftovers during the shard batch passes — they are at most k-1 sub-k
  // fingerprints plus the >=k pass-throughs).  Every other tail shape
  // only appends, so groups flow to the emitter as shards complete and
  // the deferred leftovers are materialized later, pass by pass, by the
  // streaming reconciliation.
  const core::LeftoverPolicy policy = glove.leftover_policy;
  const bool buffered =
      policy == core::LeftoverPolicy::kMergeIntoNearest && !rplan.tail.empty();

  std::uint64_t emitted_groups = 0;
  std::uint64_t emitted_samples = 0;
  std::vector<cdr::Fingerprint> held;  // buffered mode only
  const auto deliver = [&](cdr::Fingerprint&& fp) {
    if (buffered) {
      held.push_back(std::move(fp));
      return;
    }
    ++emitted_groups;
    emitted_samples += fp.size();
    emit(std::move(fp));
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
  std::vector<cdr::Fingerprint> leftovers;  // buffered mode only
  if (buffered) leftovers.reserve(deferred_total);
  std::mutex progress_mutex;
  std::uint64_t done = 0;
  const cdr::FingerprintDataset* inmem = source.materialized();

  for (std::size_t first = 0; first < shard_count;) {
    // Close the batch before the budget breaks; a single oversized shard
    // still forms its own batch.  Deferred fingerprints ride along (and
    // count against the budget) only in buffered mode — the streaming
    // reconciliation materializes them in its own passes otherwise.
    std::size_t last = first;
    std::size_t batch_members = 0;
    while (last < shard_count) {
      std::size_t members = split.kept[last].size();
      if (buffered) members += split.deferred[last].size();
      if (last > first && batch_members + members > batch_budget) break;
      batch_members += members;
      ++last;
    }
    GLOVE_SPAN_NAMED(batch_span, "stream.shard_batch");
    batch_span.arg("first_shard", first);
    batch_span.arg("shards", last - first);
    batch_span.arg("members", batch_members);
    c_batches.add();
    if (obs::log_verbose()) {
      obs::log_info("stream.batch",
                    obs::log_kv("first_shard", first) + ' ' +
                        obs::log_kv("shards", last - first) + ' ' +
                        obs::log_kv("members", batch_members));
    }

    // Materialized sources hand fingerprints out by index (one copy per
    // batch member); true streams are re-read whole, keeping only this
    // batch's members.
    std::unordered_map<std::uint32_t, std::uint32_t> slot_of_id;
    std::vector<cdr::Fingerprint> store;
    if (inmem == nullptr) {
      slot_of_id.reserve(batch_members);
      std::uint32_t next_slot = 0;
      for (std::size_t s = first; s < last; ++s) {
        for (const std::uint32_t id : split.kept[s]) {
          slot_of_id[id] = next_slot++;
        }
        if (buffered) {
          for (const std::uint32_t id : split.deferred[s]) {
            slot_of_id[id] = next_slot++;
          }
        }
      }
      store.resize(next_slot);
      result.pass_fingerprints.push_back(
          materialize_pass(source, slot_of_id, store, n, hooks));
    }
    const auto fetch = [&](std::uint32_t id) -> cdr::Fingerprint {
      if (inmem != nullptr) return (*inmem)[id];
      return std::move(store[slot_of_id.at(id)]);
    };

    // Buffered leftovers keep their (shard, member) order across batches.
    if (buffered) {
      for (std::size_t s = first; s < last; ++s) {
        for (const std::uint32_t id : split.deferred[s]) {
          leftovers.push_back(fetch(id));
        }
      }
    }

    // Turn the batch into shard jobs (empty kept sets run nothing and
    // keep their zeroed timing row); results come back in job = shard
    // order.
    std::vector<Job> jobs;
    jobs.reserve(last - first);
    for (std::size_t s = first; s < last; ++s) {
      if (split.kept[s].empty()) continue;
      Job& job = jobs.emplace_back();
      job.index = s;
      job.inputs.reserve(split.kept[s].size());
      for (const std::uint32_t id : split.kept[s]) {
        job.inputs.push_back(fetch(id));
      }
    }
    store.clear();
    store.shrink_to_fit();

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
    first = last;
  }

  // --- Reconcile cross-shard leftovers.  Appended groups (deferred >= k
  // pass-throughs, then the chunked reconciliation output) trail the
  // shard groups exactly as in the buffered layout.
  hooks.throw_if_cancelled();
  GLOVE_SPAN_NAMED(reconcile_span, "stream.reconcile");
  reconcile_span.arg("deferred", deferred_total);
  if (buffered) {
    // Progress inside the reconcile is reported in leftover units; shift
    // it past the kept fingerprints already counted.
    const ReconcileStats reconcile = reconcile_leftovers(
        std::move(leftovers), held, glove, resolved,
        util::subrange_hooks(hooks, done, deferred_total, total_work));
    result.stats.glove.accumulate_costs(reconcile.glove);
    result.stats.reconciled_groups = reconcile.reconciled_groups;
    result.stats.absorbed_leftovers = reconcile.absorbed;
    result.stats.reconcile_seconds = reconcile.seconds;
    for (cdr::Fingerprint& fp : held) {
      ++emitted_groups;
      emitted_samples += fp.size();
      emit(std::move(fp));
    }
  } else {
    // Streaming reconciliation: materialize one budget's worth of
    // reconcile units per rewound pass — the leftover analogue of the
    // shard batches — and run the pass's GLOVE chunks as one batch.
    // Chunk membership is fixed by the plan, so the chunks are
    // independent jobs exactly like shards.  No fingerprint is held
    // before the pass that consumes it.
    const auto reconcile_start = Clock::now();
    ReconcileStats rstats;

    // A pass covers a contiguous run of units in phase order: the >= k
    // pass-throughs, each GLOVE chunk, then the policy tail.  (The tail
    // here is suppress-only: a sub-k tail under kMergeIntoNearest took
    // the buffered branch above.)
    std::vector<const std::vector<std::uint32_t>*> units;
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
      std::size_t last_u = first_u;
      std::size_t pass_members = 0;
      while (last_u < units.size()) {
        const std::size_t members = units[last_u]->size();
        if (last_u > first_u && pass_members + members > reconcile_budget) {
          break;
        }
        pass_members += members;
        ++last_u;
      }
      GLOVE_SPAN_NAMED(pass_span, "stream.reconcile.pass");
      pass_span.arg("units", last_u - first_u);
      pass_span.arg("members", pass_members);
      if (obs::log_verbose()) {
        obs::log_info("stream.reconcile",
                      obs::log_kv("units", last_u - first_u) + ' ' +
                          obs::log_kv("members", pass_members));
      }

      std::unordered_map<std::uint32_t, std::uint32_t> slot_of_id;
      std::vector<cdr::Fingerprint> store;
      if (inmem == nullptr) {
        std::uint32_t next_slot = 0;
        for (std::size_t u = first_u; u < last_u; ++u) {
          for (const std::uint32_t position : *units[u]) {
            slot_of_id[leftover_ids[position]] = next_slot++;
          }
        }
        if (next_slot > 0) {
          store.resize(next_slot);
          result.pass_fingerprints.push_back(
              materialize_pass(source, slot_of_id, store, n, hooks));
          ++result.stats.reconcile_passes;
        }
      }
      const auto fetch = [&](std::uint32_t position) -> cdr::Fingerprint {
        const std::uint32_t id = leftover_ids[position];
        if (inmem != nullptr) return (*inmem)[id];
        return std::move(store[slot_of_id.at(id)]);
      };

      // Units are contiguous in phase order, so a pass is: pass-throughs
      // (first pass only), then chunks, then the tail (last pass only).
      std::size_t u = first_u;
      if (u < last_u && units[u] == &rplan.passthrough) {
        for (const std::uint32_t position : rplan.passthrough) {
          deliver(fetch(position));
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
      for (; u < last_u && is_chunk(u); ++u) {
        const std::size_t j = jobs.size();
        Job& job = jobs.emplace_back();
        job.reconcile_chunk = true;
        job.index = next_chunk + j;
        job.inputs.reserve(units[u]->size());
        for (const std::uint32_t position : *units[u]) {
          job.inputs.push_back(fetch(position));
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
          rstats.glove.accumulate_costs(r.stats);
          rstats.reconciled_groups += r.groups.size();
          done += r.timing.input_fingerprints;
          for (cdr::Fingerprint& fp : r.groups) deliver(std::move(fp));
        }
        next_chunk += chunk_results.size();
      }

      if (u < last_u) {  // the suppress tail
        for (const std::uint32_t position : rplan.tail) {
          count_suppressed_leftover(fetch(position), rstats);
          hooks.report(++done, total_work);
        }
      }
      first_u = last_u;
    }

    result.stats.glove.accumulate_costs(rstats.glove);
    result.stats.reconciled_groups = rstats.reconciled_groups;
    result.stats.absorbed_leftovers = rstats.absorbed;
    result.stats.reconcile_seconds = seconds_since(reconcile_start);
  }

  result.stats.glove.output_groups = emitted_groups;
  result.stats.glove.output_samples = emitted_samples;
  result.workers = pool.size();
  hooks.report(total_work, total_work);
  return result;
}

}  // namespace glove::shard
