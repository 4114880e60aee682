#include "glove/shard/stream.hpp"

#include <algorithm>
#include <chrono>
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

/// Pass 1.  An indexed source (a glovebin file's footer, or an in-memory
/// dataset's computed summaries) serves the geometry directly.  A source
/// with no index is read here, exactly once: the scan copies it into
/// `spill`, whose footer then serves the geometry, and every later pass
/// fetches from the spill.
StreamScan scan_stream(api::DatasetSource& source,
                       std::unique_ptr<api::SourceSpill>& spill,
                       const util::RunHooks& hooks) {
  std::vector<cdr::FingerprintSummary> summaries;
  if (!source.summaries(summaries)) {
    spill = std::make_unique<api::SourceSpill>(source, hooks);
    spill->source().summaries(summaries);
  }
  StreamScan scan;
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

/// One unit a pass materializes: a shard's kept set, the reconcile
/// pass-throughs, one reconcile GLOVE chunk or the policy tail.  A phase
/// lists its units in output order, each kind contiguous: the shards;
/// then the pass-throughs, the chunks and the tail.
struct Unit {
  enum class Kind { kShard, kPassthrough, kChunk, kTail };
  Kind kind = Kind::kShard;
  std::size_t index = 0;  ///< shard index, or chunk index in plan order
  const std::vector<std::uint32_t>* ids = nullptr;  ///< dataset ids
};
using Units = std::vector<Unit>;

/// One materialization pass.  The constructor closes the pass: units
/// from `first` on join it until the next one would push its members
/// past `budget` (a single oversized unit still forms a pass of its own).
/// materialize() then fetches exactly the pass's ids from the source's
/// index (its own, or its spill's) for take() to hand out.
class Pass {
 public:
  Pass(const Units& units, std::size_t first, std::size_t budget)
      : last{first}, first_{first}, units_{&units} {
    while (last < units.size()) {
      const std::size_t size = units[last].ids->size();
      if (last > first && members + size > budget) break;
      members += size;
      ++last;
    }
  }

  /// Fetches the pass's fingerprints out of `source` and appends their
  /// count to `pass_fingerprints`.
  void materialize(api::DatasetSource& source,
                   std::vector<std::uint64_t>& pass_fingerprints) {
    slot_of_id_.reserve(members);
    std::uint32_t next_slot = 0;
    for (std::size_t u = first_; u < last; ++u) {
      for (const std::uint32_t id : *(*units_)[u].ids) {
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
  }

  /// Hands out the fingerprint with dataset index `id` (once per id).
  cdr::Fingerprint take(std::uint32_t id) {
    return std::move(store_[slot_of_id_.at(id)]);
  }

  /// Frees the moved-from store once every member has been taken.
  void release() { store_ = {}; }

  std::size_t last;  ///< one past the pass's last unit
  std::size_t members = 0;

 private:
  std::size_t first_;
  const Units* units_;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of_id_;
  std::vector<cdr::Fingerprint> store_;
};

/// One GLOVE job of a pass: a shard's kept set, or one reconcile chunk.
/// Both run the same pruned GLOVE over `inputs`; the unit's kind only
/// picks the trace span and the plane counters the job is billed to
/// (stream.shard / stream.shards_run vs stream.reconcile.chunk).
/// run_batch fills `groups`, the cost counters the caller folds via
/// GloveStats::accumulate_costs, and the shard's report row.
struct Job {
  Unit unit;
  std::vector<cdr::Fingerprint> inputs;
  util::ProgressFn progress;  ///< inner GLOVE progress, on a pool thread
  ShardTiming* timing = nullptr;  ///< the shard's row; null for a chunk
  std::vector<cdr::Fingerprint> groups;
  core::GloveStats stats;
};

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

/// Runs one pass's jobs as a batch on `pool`.  Identical jobs yield
/// identical groups whatever the pool size or scheduling.  Cancellation
/// propagates from `hooks.cancel` as util::CancelledError.
void run_batch(util::ThreadPool& pool, const core::GloveConfig& glove,
               std::vector<Job>& jobs, const util::RunHooks& hooks) {
  // Reconcile chunks are counted where the chunks are planned, never as
  // shards.
  static const obs::Counter c_shards = obs::counter("stream.shards_run");
  static const obs::Histogram h_shard_members =
      obs::histogram("stream.shard.members");

  util::parallel_for(
      pool, jobs.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          hooks.throw_if_cancelled();
          Job& job = jobs[j];
          const bool chunk = job.unit.kind == Unit::Kind::kChunk;
          const std::size_t members = job.inputs.size();
          GLOVE_SPAN_NAMED(job_span,
                           chunk ? "stream.reconcile.chunk" : "stream.shard");
          job_span.arg(chunk ? "chunk" : "shard", job.unit.index);
          job_span.arg("members", members);
          if (!chunk) {
            c_shards.add();
            h_shard_members.observe(members);
          }
          util::RunHooks inner;
          inner.cancel = hooks.cancel;
          inner.progress = std::move(job.progress);
          const auto start = Clock::now();
          core::GloveResult run = core::anonymize_pruned(
              cdr::FingerprintDataset{std::move(job.inputs)}, glove, inner);
          if (job.timing != nullptr) {
            job.timing->init_seconds = run.stats.init_seconds;
            job.timing->merge_seconds = run.stats.merge_seconds;
            job.timing->total_seconds = seconds_since(start);
            job.timing->output_groups = run.anonymized.size();
          }
          job_span.arg("groups", run.anonymized.size());
          job.groups = std::move(run.anonymized.mutable_fingerprints());
          job.stats = run.stats;
        }
      },
      /*min_chunk=*/1);
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

  // --- Passes 2..: the shard batches, then the reconcile passes.  The
  // batch budget caps resident fingerprints at roughly one shard per pool
  // worker, which also keeps the workers busy.  The pool also runs the
  // reconcile chunks, so it is sized for whichever phase has more jobs: a
  // plan with few shards but many chunks still reconciles in parallel.
  util::ThreadPool pool{
      pool_size(resolved, std::max(shard_count, rplan.chunks.size()))};
  const std::size_t batch_budget =
      std::max<std::size_t>(resolved.max_shard_users * pool.size(), 1);

  const std::uint64_t total_work = n + 1;  // +1: the final reconcile tick
  hooks.report(0, total_work);
  std::mutex progress_mutex;
  std::uint64_t done = 0;

  // The one pass loop.  Each pass materializes a budget's worth of
  // contiguous units, delivers its pass-throughs, runs its GLOVE units
  // (shards, or reconcile chunks) as one batch on the pool, delivers their
  // groups in unit order, then absorbs or suppresses the policy tail (a
  // non-empty tail means the plan has no chunks, so every group the tail
  // may join is already held).
  const auto run_passes = [&](const Units& units, std::size_t budget) {
    for (std::size_t first = 0; first < units.size();) {
      Pass pass{units, first, budget};
      const bool shards = units[first].kind == Unit::Kind::kShard;
      GLOVE_SPAN_NAMED(pass_span, shards ? "stream.shard_batch"
                                         : "stream.reconcile.pass");
      std::string log_line;
      if (shards) {
        pass_span.arg("first_shard", units[first].index);
        pass_span.arg("shards", pass.last - first);
        log_line = obs::log_kv("first_shard", units[first].index) + ' ' +
                   obs::log_kv("shards", pass.last - first);
        c_batches.add();
      } else {
        pass_span.arg("units", pass.last - first);
        log_line = obs::log_kv("units", pass.last - first);
        ++result.stats.reconcile_passes;
      }
      pass_span.arg("members", pass.members);
      if (obs::log_verbose()) {
        obs::log_info(shards ? "stream.batch" : "stream.reconcile",
                      log_line + ' ' + obs::log_kv("members", pass.members));
      }
      pass.materialize(reader, result.pass_fingerprints);

      // Inner GLOVE progress arrives per job in util::subrange_hooks units
      // of its members; it is summed across the batch's concurrent jobs
      // under the lock, so the reported total stays monotone.
      std::vector<Job> jobs;
      std::vector<std::uint64_t> job_done;
      std::uint64_t batch_done = 0;
      std::vector<cdr::Fingerprint> tail;
      for (std::size_t u = first; u < pass.last; ++u) {
        const Unit& unit = units[u];
        if (unit.kind == Unit::Kind::kPassthrough) {
          for (const std::uint32_t id : *unit.ids) deliver(pass.take(id));
          done += unit.ids->size();
          hooks.report(done, total_work);
          continue;
        }
        if (unit.kind == Unit::Kind::kTail) {
          for (const std::uint32_t id : *unit.ids) {
            tail.push_back(pass.take(id));
          }
          continue;
        }
        // An empty kept set runs nothing and keeps its zeroed timing row.
        if (unit.ids->empty()) continue;
        const std::size_t j = jobs.size();
        Job& job = jobs.emplace_back();
        job.unit = unit;
        job.inputs.reserve(unit.ids->size());
        for (const std::uint32_t id : *unit.ids) {
          job.inputs.push_back(pass.take(id));
        }
        if (unit.kind == Unit::Kind::kShard) {
          job.timing = &result.shard_timings[unit.index];
        } else {
          c_chunks.add();
        }
        if (hooks.progress) {
          util::RunHooks forward;
          forward.progress = [&, j, base = done](std::uint64_t units_done,
                                                 std::uint64_t) {
            const std::lock_guard lock{progress_mutex};
            if (units_done <= job_done[j]) return;
            batch_done += units_done - job_done[j];
            job_done[j] = units_done;
            hooks.report(base + batch_done, total_work);
          };
          job.progress = util::subrange_hooks(forward, 0, job.inputs.size(),
                                              total_work)
                             .progress;
        }
      }
      pass.release();

      job_done.assign(jobs.size(), 0);
      run_batch(pool, glove, jobs, hooks);
      for (Job& job : jobs) {
        result.stats.glove.accumulate_costs(job.stats);
        if (job.unit.kind == Unit::Kind::kChunk) {
          result.stats.reconciled_groups += job.groups.size();
        }
        done += job.unit.ids->size();
        for (cdr::Fingerprint& fp : job.groups) deliver(std::move(fp));
      }
      if (!jobs.empty()) hooks.report(done, total_work);

      if (!tail.empty()) {
        const std::uint64_t tail_size = tail.size();
        result.stats.absorbed_leftovers = reconcile_tail(
            std::move(tail), held, glove, result.stats.glove,
            util::subrange_hooks(hooks, done, tail_size, total_work));
        done += tail_size;
      }
      first = pass.last;
    }
  };

  Units shard_units;
  shard_units.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shard_units.push_back(Unit{Unit::Kind::kShard, s, &split.kept[s]});
  }
  run_passes(shard_units, batch_budget);

  // --- Reconcile cross-shard leftovers: one budget's worth of reconcile
  // units per pass, the leftover analogue of the shard batches.  Chunk
  // membership is fixed by the plan, so the chunks are independent jobs
  // exactly like shards.  No fingerprint is held before the pass that
  // consumes it.  Appended groups (deferred >= k pass-throughs, then the
  // chunks' output) trail the shard groups.
  hooks.throw_if_cancelled();
  GLOVE_SPAN_NAMED(reconcile_span, "stream.reconcile");
  reconcile_span.arg("deferred", deferred_total);
  const auto reconcile_start = Clock::now();
  Units reconcile_units;
  reconcile_units.reserve(rplan.chunks.size() + 2);
  if (!rplan.passthrough.empty()) {
    reconcile_units.push_back(
        Unit{Unit::Kind::kPassthrough, 0, &rplan.passthrough});
  }
  for (std::size_t c = 0; c < rplan.chunks.size(); ++c) {
    reconcile_units.push_back(Unit{Unit::Kind::kChunk, c, &rplan.chunks[c]});
  }
  if (!rplan.tail.empty()) {
    reconcile_units.push_back(Unit{Unit::Kind::kTail, 0, &rplan.tail});
  }
  run_passes(reconcile_units,
             resolved.reconcile_chunk_users > 0
                 ? resolved.reconcile_chunk_users
                 : batch_budget);
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
