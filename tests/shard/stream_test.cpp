// The sharded streaming core: a text-backed source (no index, like the
// CSV file source) must reproduce the in-memory pipeline byte for byte,
// batching must not change the output, per-pass accounting must add up,
// and a source without an index is read exactly once, through a private
// spill that never outlives the run.

#include "glove/shard/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/sharded_run.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/source.hpp"
#include "glove/cdr/binio.hpp"
#include "glove/cdr/io.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/shard/shard.hpp"

namespace glove::shard {
namespace {

/// GLOVE at k = 2, the parameters every run below uses unless it says
/// otherwise.
const core::GloveConfig kGlove;

ShardConfig small_config() {
  ShardConfig config;
  config.tile_size_m = 5'000.0;
  config.max_shard_users = 16;
  config.halo_m = 500.0;
  return config;
}

/// Streams fingerprints out of serialized CSV text, with no index — the
/// unit-test stand-in for CsvFileSource.  Counts what it yields and how
/// often it is rewound.
class TextStream final : public api::DatasetSource {
 public:
  explicit TextStream(std::string text) : text_{std::move(text)} { reset(); }

  std::string_view kind() const noexcept override { return "text"; }
  std::string name() const override { return "text"; }
  bool next(cdr::Fingerprint& fingerprint) override {
    const bool got = reader_->next(fingerprint);
    if (got) ++yielded_;
    return got;
  }
  void rewind() override {
    ++rewinds_;
    reset();
  }

  [[nodiscard]] std::uint64_t yielded() const noexcept { return yielded_; }
  [[nodiscard]] std::uint64_t rewinds() const noexcept { return rewinds_; }

 private:
  void reset() {
    in_ = std::istringstream{text_};
    reader_.emplace(in_);
  }

  std::string text_;
  std::istringstream in_;
  std::optional<cdr::DatasetStreamReader> reader_;
  std::uint64_t yielded_ = 0;
  std::uint64_t rewinds_ = 0;
};

/// Points TMPDIR — and with it std::filesystem::temp_directory_path(),
/// under which the stream spills a source without an index — at a fresh
/// test directory for the scope's lifetime.
class SpillRoot {
 public:
  SpillRoot() {
    if (const char* old = std::getenv("TMPDIR")) saved_ = old;
    ::setenv("TMPDIR", dir_.path().c_str(), 1);
  }
  ~SpillRoot() {
    if (saved_) {
      ::setenv("TMPDIR", saved_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
  }
  SpillRoot(const SpillRoot&) = delete;
  SpillRoot& operator=(const SpillRoot&) = delete;

  /// Entries directly under the root: one spill directory while a run
  /// holds its spill, none before and after.
  [[nodiscard]] std::size_t entries() const {
    return static_cast<std::size_t>(
        std::distance(std::filesystem::directory_iterator{dir_.path()},
                      std::filesystem::directory_iterator{}));
  }

 private:
  test::TempDir dir_;
  std::optional<std::string> saved_;
};

std::vector<cdr::Fingerprint> run_stream(
    api::DatasetSource& stream, const ShardConfig& config,
    StreamShardedResult* result_out, const core::GloveConfig& glove = kGlove) {
  std::vector<cdr::Fingerprint> groups;
  StreamShardedResult result = anonymize_sharded_stream(
      stream, glove, config,
      [&](cdr::Fingerprint&& fp) { groups.push_back(std::move(fp)); });
  if (result_out != nullptr) *result_out = std::move(result);
  return groups;
}

/// Runs `stream` with the span recorder on and returns the trace.
std::string run_traced(api::DatasetSource& stream, const ShardConfig& config,
                       StreamShardedResult* result_out,
                       std::vector<cdr::Fingerprint>* groups_out = nullptr) {
  obs::start_tracing();
  std::vector<cdr::Fingerprint> groups =
      run_stream(stream, config, result_out);
  if (groups_out != nullptr) *groups_out = std::move(groups);
  return obs::stop_tracing_and_render();
}

TEST(ShardStream, TextBackedStreamMatchesInMemoryPipeline) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);

  const ShardConfig config = small_config();
  const test::ShardedRun reference = test::run_sharded(data, kGlove, config);

  TextStream stream{serialized.str()};
  StreamShardedResult streamed;
  std::vector<cdr::Fingerprint> groups =
      run_stream(stream, config, &streamed);

  EXPECT_EQ(test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)}),
            test::dataset_to_csv(cdr::FingerprintDataset{
                {reference.anonymized.fingerprints().begin(),
                 reference.anonymized.fingerprints().end()}}));
  EXPECT_EQ(streamed.stats.glove.output_groups,
            reference.stats.glove.output_groups);
  EXPECT_EQ(streamed.stats.deferred_fingerprints,
            reference.stats.deferred_fingerprints);
  EXPECT_EQ(streamed.stats.shards, reference.stats.shards);
}

TEST(ShardStream, BatchBoundariesDoNotChangeTheOutput) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  std::string reference;
  // workers drives the batch budget (max_shard_users x workers), so these
  // runs cover one-shard-per-pass up to several-shards-per-pass.
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ShardConfig config = small_config();
    config.workers = workers;
    TextStream stream{serialized.str()};
    StreamShardedResult result;
    std::vector<cdr::Fingerprint> groups;
    const std::string trace = run_traced(stream, config, &result, &groups);
    const std::string csv =
        test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)});
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference) << "workers=" << workers;
    }
    // The stream is read once: the planning scan yields every
    // fingerprint, and each later pass (>= 1 batch) exactly its members.
    ASSERT_GE(result.pass_fingerprints.size(), 2u) << "workers=" << workers;
    EXPECT_EQ(result.pass_fingerprints,
              test::read_once_passes(data.size(), trace))
        << "workers=" << workers;
    EXPECT_EQ(stream.yielded(), data.size()) << "workers=" << workers;
  }
}

TEST(ShardStream, SmallBudgetRunsManyPassesLargeBudgetFew) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  ShardConfig tight = small_config();
  tight.workers = 1;  // budget = max_shard_users
  TextStream stream_a{serialized.str()};
  StreamShardedResult tight_result;
  (void)run_stream(stream_a, tight, &tight_result);

  ShardConfig wide = small_config();
  wide.workers = 64;  // budget swallows the whole plan
  TextStream stream_b{serialized.str()};
  StreamShardedResult wide_result;
  (void)run_stream(stream_b, wide, &wide_result);

  EXPECT_GT(tight_result.pass_fingerprints.size(),
            wide_result.pass_fingerprints.size());
  // scan + one shard batch + one reconcile pass (deferred fingerprints
  // are materialized by the reconcile phase, not with the batches).
  EXPECT_EQ(wide_result.pass_fingerprints.size(),
            2u + wide_result.stats.reconcile_passes);
  EXPECT_LE(wide_result.stats.reconcile_passes, 1u);
}

TEST(ShardStream, MemorySourceFetchesThePassesASpilledStreamReads) {
  // An in-memory MemorySource serves summaries() and fetch() like the
  // spill of a text-backed stream, so both report the same passes and
  // produce identical bytes.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  const ShardConfig config = small_config();

  api::MemorySource memory_stream{data};
  StreamShardedResult memory_result;
  std::vector<cdr::Fingerprint> memory_groups =
      run_stream(memory_stream, config, &memory_result);

  TextStream text_stream{serialized.str()};
  StreamShardedResult text_result;
  std::vector<cdr::Fingerprint> text_groups =
      run_stream(text_stream, config, &text_result);
  EXPECT_GE(text_result.pass_fingerprints.size(), 2u);
  EXPECT_EQ(memory_result.pass_fingerprints, text_result.pass_fingerprints);
  EXPECT_EQ(
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(memory_groups)}),
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(text_groups)}));
}

TEST(ShardStream, AdaptiveTileSizeResolvesFromTheScanPass) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  ShardConfig config = small_config();
  config.tile_size_m = 0.0;  // adaptive
  api::MemorySource stream{data};
  StreamShardedResult result;
  std::vector<cdr::Fingerprint> groups = run_stream(stream, config, &result);
  EXPECT_GE(result.stats.tile_size_m, 1'000.0);
  EXPECT_LE(result.stats.tile_size_m, 200'000.0);
  EXPECT_FALSE(groups.empty());

  // Explicitly configuring the resolved size reproduces the run exactly.
  ShardConfig pinned = small_config();
  pinned.tile_size_m = result.stats.tile_size_m;
  api::MemorySource again{data};
  std::vector<cdr::Fingerprint> pinned_groups =
      run_stream(again, pinned, nullptr);
  EXPECT_EQ(test::dataset_to_csv(
                cdr::FingerprintDataset{std::move(pinned_groups)}),
            test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)}));
}

TEST(ShardStream, BorderedReconcileBudgetsAreByteIdenticalToInMemory) {
  // The streaming reconciliation (deferred leftovers materialized chunk
  // by chunk on later passes) must reproduce the in-memory pipeline —
  // and the blessed pre-refactor golden — for every reconcile budget and
  // worker count.  The budget only moves pass boundaries.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  const ShardConfig config = small_config();

  const test::ShardedRun reference = test::run_sharded(data, kGlove, config);
  test::expect_matches_golden("sharded_synth60_k2.csv",
                              test::dataset_to_csv(reference.anonymized));
  // Streamed groups are compared name-stripped (the emitter yields bare
  // fingerprints; the Engine adds the dataset name at the sink).
  const std::string reference_csv = test::dataset_to_csv(
      cdr::FingerprintDataset{{reference.anonymized.fingerprints().begin(),
                               reference.anonymized.fingerprints().end()}});
  ASSERT_GT(reference.stats.deferred_fingerprints, 0u);

  for (const std::size_t budget :
       {std::size_t{1}, std::size_t{0},
        std::numeric_limits<std::size_t>::max()}) {
    for (const std::size_t workers : {1u, 4u}) {
      ShardConfig bordered = config;
      bordered.reconcile_chunk_users = budget;
      bordered.workers = workers;
      TextStream stream{serialized.str()};
      StreamShardedResult result;
      std::vector<cdr::Fingerprint> groups =
          run_stream(stream, bordered, &result);
      EXPECT_EQ(test::dataset_to_csv(
                    cdr::FingerprintDataset{std::move(groups)}),
                reference_csv)
          << "budget=" << budget << " workers=" << workers;
      EXPECT_EQ(result.stats.deferred_fingerprints,
                reference.stats.deferred_fingerprints);
      EXPECT_GE(result.stats.reconcile_passes, 1u);
    }
  }
}

/// Four 5 km tiles of four users each, plus user 99 inside tile (0, 0)
/// but within 500 m of the tile (1, 0) border.  With one shard per tile
/// the border split defers exactly that one sub-k fingerprint at k = 2:
/// the leftover tail that kMergeIntoNearest absorbs into a finalized
/// group and kSuppress discards.
cdr::FingerprintDataset one_border_user_dataset() {
  std::vector<cdr::Fingerprint> fingerprints;
  cdr::UserId id = 0;
  for (const double cy : {2'500.0, 7'500.0}) {
    for (const double cx : {2'500.0, 7'500.0}) {
      for (int m = 0; m < 4; ++m) {
        const double dx = (m & 1) != 0 ? 600.0 : -600.0;
        const double dy = (m & 2) != 0 ? 600.0 : -600.0;
        fingerprints.push_back(cdr::Fingerprint{
            id, {test::cell(cx + dx, cy + dy, 60.0 * m),
                 test::cell(cx, cy + dy, 600.0 + 10.0 * id)}});
        ++id;
      }
    }
  }
  fingerprints.push_back(
      cdr::Fingerprint{99u, {test::cell(4'700.0, 2'500.0, 30.0)}});
  return cdr::FingerprintDataset{std::move(fingerprints), "absorb-tail"};
}

TEST(ShardStream, AbsorbTailMatchesAcrossSourcesBudgetsAndWorkers) {
  const cdr::FingerprintDataset data = one_border_user_dataset();
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  const test::TempDir dir;
  const std::string bin = dir.file("absorb-tail.glovebin");
  cdr::write_dataset_glovebin_file(bin, data, /*block_fingerprints=*/4);

  const auto sources = [&] {
    std::vector<std::unique_ptr<api::DatasetSource>> all;
    all.push_back(std::make_unique<TextStream>(serialized.str()));
    all.push_back(std::make_unique<api::MemorySource>(data));
    all.push_back(std::make_unique<api::GlovebinSource>(bin));
    return all;
  };
  const auto users_of = [](const std::vector<cdr::Fingerprint>& groups) {
    std::uint64_t users = 0;
    for (const cdr::Fingerprint& fp : groups) {
      EXPECT_GE(fp.group_size(), kGlove.k);
      users += fp.group_size();
    }
    return users;
  };

  // Both shard budgets plan one shard per tile; with the worker counts
  // they move the shard-batch boundaries (one to four shards a batch).
  std::string reference;
  for (const std::size_t shard_users : {4u, 7u}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("shard_users=" + std::to_string(shard_users) +
                   " workers=" + std::to_string(workers));
      ShardConfig config;
      config.tile_size_m = 5'000.0;
      config.halo_m = 500.0;
      config.max_shard_users = shard_users;
      config.workers = workers;
      for (const auto& source : sources()) {
        SCOPED_TRACE(source->kind());
        StreamShardedResult result;
        std::vector<cdr::Fingerprint> groups =
            run_stream(*source, config, &result);
        EXPECT_EQ(result.stats.shards, 4u);
        EXPECT_EQ(result.stats.deferred_fingerprints, 1u);
        EXPECT_EQ(result.stats.absorbed_leftovers, 1u);
        EXPECT_EQ(result.stats.reconciled_groups, 0u);
        EXPECT_EQ(result.stats.glove.discarded_fingerprints, 0u);
        EXPECT_EQ(result.stats.glove.output_groups, groups.size());
        EXPECT_EQ(users_of(groups), data.total_users());
        const std::string csv =
            test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)});
        if (reference.empty()) {
          reference = csv;
        } else {
          EXPECT_EQ(csv, reference);
        }
      }
    }
  }

  // The same input under kSuppress discards the tail's one user instead.
  core::GloveConfig suppress = kGlove;
  suppress.leftover_policy = core::LeftoverPolicy::kSuppress;
  ShardConfig config;
  config.tile_size_m = 5'000.0;
  config.halo_m = 500.0;
  config.max_shard_users = 4;
  std::string suppressed_reference;
  for (const auto& source : sources()) {
    SCOPED_TRACE(source->kind());
    StreamShardedResult result;
    std::vector<cdr::Fingerprint> groups =
        run_stream(*source, config, &result, suppress);
    EXPECT_EQ(result.stats.absorbed_leftovers, 0u);
    EXPECT_EQ(result.stats.glove.discarded_fingerprints, 1u);
    EXPECT_EQ(users_of(groups), data.total_users() - 1);
    const std::string csv =
        test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)});
    if (suppressed_reference.empty()) {
      suppressed_reference = csv;
    } else {
      EXPECT_EQ(csv, suppressed_reference);
    }
  }
}

/// One stream.reconcile.chunk span of a rendered trace.
struct ChunkSpan {
  std::uint64_t tid = 0;
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// The stream.reconcile.chunk spans of a rendered trace document (the
/// exporter's fixed key order: name, cat, ph, ts, pid, tid).
std::vector<ChunkSpan> reconcile_chunk_spans(const std::string& doc) {
  const std::regex event{
      R"re("name": "stream\.reconcile\.chunk","cat": "glove",)re"
      R"re("ph": "([BE])","ts": ([^,]+),"pid": \d+,"tid": (\d+))re"};
  std::vector<ChunkSpan> spans;
  std::map<std::uint64_t, std::size_t> open;  // tid -> index into spans
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), event);
       it != std::sregex_iterator(); ++it) {
    const std::uint64_t tid = std::stoull((*it)[3].str());
    const double ts = std::stod((*it)[2].str());
    if ((*it)[1].str() == "B") {
      open[tid] = spans.size();
      spans.push_back(ChunkSpan{tid, ts, ts});
    } else {
      spans[open.at(tid)].end_us = ts;
    }
  }
  return spans;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const std::string& name) {
  const auto delta = obs::counter_delta(before, obs::snapshot_metrics());
  for (const auto& [key, value] : delta) {
    if (key == name) return value;
  }
  return 0;
}

TEST(ShardStream, ReconcileChunksRunConcurrentlyWithIdenticalBytes) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  const auto run_csv = [&](const ShardConfig& config,
                           StreamShardedResult* result) {
    TextStream stream{serialized.str()};
    cdr::FingerprintDataset out{run_stream(stream, config, result)};
    out.set_name(sharded_output_name(data.name(), kGlove.k));
    return test::dataset_to_csv(out);
  };

  // The golden's config plans a single reconcile chunk; with the whole
  // phase in one pass it must come out of every worker count unchanged.
  ShardConfig golden_config = small_config();
  golden_config.reconcile_chunk_users = std::numeric_limits<std::size_t>::max();
  for (const std::size_t workers : {1u, 2u, 4u}) {
    golden_config.workers = workers;
    test::expect_matches_golden("sharded_synth60_k2.csv",
                                run_csv(golden_config, nullptr));
  }

  // A wide halo over small shards defers enough sub-k fingerprints for
  // several chunks.  The strictly serial schedule — one worker, one chunk
  // per pass — is the reference; an unbounded budget puts every
  // chunk into one pass, i.e. one concurrent batch.
  ShardConfig config = small_config();
  config.max_shard_users = 4;
  config.halo_m = 2'000.0;
  config.workers = 1;
  config.reconcile_chunk_users = 1;
  const std::string reference = run_csv(config, nullptr);
  config.reconcile_chunk_users = std::numeric_limits<std::size_t>::max();
  for (const std::size_t workers : {1u, 2u, 4u}) {
    config.workers = workers;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    StreamShardedResult result;
    EXPECT_EQ(run_csv(config, &result), reference) << "workers=" << workers;
    EXPECT_EQ(result.stats.reconcile_passes, 1u) << "workers=" << workers;
    EXPECT_GE(counter_delta(before, "stream.reconcile_chunks"), 3u)
        << "workers=" << workers;
    EXPECT_EQ(result.workers, workers);
  }

  // Concurrency on the traced 4-worker run: the first progress report
  // from inside a reconcile chunk holds that chunk open for a while, so
  // another worker starts the next chunk meanwhile — two
  // stream.reconcile.chunk spans on different threads must overlap.
  const std::uint64_t kept =
      data.size() -
      test::run_sharded(data, kGlove, config).stats.deferred_fingerprints;
  std::atomic<bool> held{false};
  util::RunHooks hooks;
  hooks.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done > kept && !held.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  };
  const GroupEmitter discard = [](cdr::Fingerprint&&) {};
  TextStream stream{serialized.str()};
  obs::start_tracing();
  (void)anonymize_sharded_stream(stream, kGlove, config, discard, hooks);
  const std::vector<ChunkSpan> spans =
      reconcile_chunk_spans(obs::stop_tracing_and_render());
  ASSERT_GE(spans.size(), 3u);
  const auto overlap = [](const ChunkSpan& a, const ChunkSpan& b) {
    return a.tid != b.tid && a.begin_us < b.end_us && b.begin_us < a.end_us;
  };
  bool overlapped = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      overlapped = overlapped || overlap(spans[i], spans[j]);
    }
  }
  EXPECT_TRUE(overlapped) << "reconcile chunks ran one at a time";
}

TEST(ShardStream, ReconcilePassAccountingAddsUp) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);

  // A wide halo over small shards defers enough sub-k fingerprints for
  // several GLOVE chunks, so the budget really moves pass boundaries.
  ShardConfig base = small_config();
  base.max_shard_users = 8;
  base.halo_m = 2'000.0;

  // Tightest budget: every reconcile unit gets its own pass.
  ShardConfig tight = base;
  tight.workers = 1;
  tight.reconcile_chunk_users = 1;
  TextStream stream{serialized.str()};
  StreamShardedResult tight_result;
  const std::string trace = run_traced(stream, tight, &tight_result);
  ASSERT_GE(tight_result.stats.reconcile_passes, 1u);
  // Planning scan + >= 1 shard batch + the reconcile passes: the scan
  // yields every fingerprint, each later pass exactly its members.
  EXPECT_GE(tight_result.pass_fingerprints.size(),
            2u + tight_result.stats.reconcile_passes);
  EXPECT_EQ(tight_result.pass_fingerprints,
            test::read_once_passes(data.size(), trace));

  // Unbounded budget: the whole reconcile phase in one pass.
  ShardConfig wide = base;
  wide.workers = 1;
  wide.reconcile_chunk_users = std::numeric_limits<std::size_t>::max();
  TextStream wide_stream{serialized.str()};
  StreamShardedResult wide_result;
  (void)run_stream(wide_stream, wide, &wide_result);
  EXPECT_EQ(wide_result.stats.reconcile_passes, 1u);
  EXPECT_GT(tight_result.stats.reconcile_passes,
            wide_result.stats.reconcile_passes);

  // An in-memory source fetches its leftovers through the same passes.
  api::MemorySource memory_stream{data};
  StreamShardedResult memory_result;
  (void)run_stream(memory_stream, tight, &memory_result);
  EXPECT_EQ(memory_result.stats.reconcile_passes,
            tight_result.stats.reconcile_passes);
  EXPECT_EQ(memory_result.pass_fingerprints, tight_result.pass_fingerprints);
}

TEST(ShardStream, EverySourceKindReportsTheSamePasses) {
  // One data plane: an in-memory source, a spilled text stream and a
  // glovebin file are read through summaries()/fetch() alike, so every
  // budget and worker count gives each of them the same bytes and the
  // same pass structure.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  const test::TempDir dir;
  const std::string bin = dir.file("synth60.glovebin");
  cdr::write_dataset_glovebin_file(bin, data, /*block_fingerprints=*/8);

  ShardConfig base = small_config();
  base.max_shard_users = 8;
  base.halo_m = 2'000.0;  // several reconcile chunks
  for (const std::size_t budget :
       {std::size_t{1}, std::numeric_limits<std::size_t>::max()}) {
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE("budget=" + std::to_string(budget) +
                   " workers=" + std::to_string(workers));
      ShardConfig config = base;
      config.reconcile_chunk_users = budget;
      config.workers = workers;

      api::MemorySource memory{data};
      StreamShardedResult memory_result;
      std::vector<cdr::Fingerprint> memory_groups;
      const std::string trace =
          run_traced(memory, config, &memory_result, &memory_groups);
      EXPECT_EQ(memory_result.pass_fingerprints,
                test::read_once_passes(data.size(), trace));
      EXPECT_GE(memory_result.stats.reconcile_passes, 1u);
      const std::string memory_csv = test::dataset_to_csv(
          cdr::FingerprintDataset{std::move(memory_groups)});

      TextStream text{serialized.str()};
      api::GlovebinSource file{bin};
      for (api::DatasetSource* source :
           {static_cast<api::DatasetSource*>(&text),
            static_cast<api::DatasetSource*>(&file)}) {
        SCOPED_TRACE(source->kind());
        StreamShardedResult result;
        std::vector<cdr::Fingerprint> groups =
            run_stream(*source, config, &result);
        EXPECT_EQ(test::dataset_to_csv(
                      cdr::FingerprintDataset{std::move(groups)}),
                  memory_csv);
        EXPECT_EQ(result.pass_fingerprints, memory_result.pass_fingerprints);
        EXPECT_EQ(result.stats.reconcile_passes,
                  memory_result.stats.reconcile_passes);
      }
    }
  }
}

TEST(ShardStream, SingleShardReportsProgressBeforeItFinishes) {
  // One shard holding every fingerprint: its inner GLOVE progress must
  // reach the caller while it runs, not only once it completes.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  ShardConfig config = small_config();
  config.border = BorderPolicy::kNone;
  config.max_shard_users = data.size();
  config.tile_size_m = 1'000'000.0;
  std::vector<std::uint64_t> reports;
  util::RunHooks hooks;
  hooks.progress = [&](std::uint64_t done, std::uint64_t) {
    reports.push_back(done);
  };
  api::MemorySource source{data};
  const StreamShardedResult result = anonymize_sharded_stream(
      source, kGlove, config, [](cdr::Fingerprint&&) {}, hooks);
  ASSERT_EQ(result.stats.shards, 1u);
  ASSERT_EQ(result.stats.deferred_fingerprints, 0u);
  EXPECT_TRUE(std::any_of(reports.begin(), reports.end(),
                          [&](std::uint64_t done) {
                            return done > 0 && done < data.size();
                          }))
      << "the shard reported progress only when it finished";
  EXPECT_TRUE(std::is_sorted(reports.begin(), reports.end()));
}

TEST(ShardStream, ProgressCountsDeferredFingerprintsDuringReconcile) {
  // Progress must keep advancing through the reconcile phase: the last
  // report before the final tick covers all n fingerprints, kept and
  // deferred alike (deferred ones used to stall below n).
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  api::MemorySource stream{data};
  util::RunHooks hooks;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reports;
  hooks.progress = [&](std::uint64_t done, std::uint64_t total) {
    reports.emplace_back(done, total);
  };
  StreamShardedResult result = anonymize_sharded_stream(
      stream, kGlove, small_config(), [](cdr::Fingerprint&&) {}, hooks);
  ASSERT_GT(result.stats.deferred_fingerprints, 0u);
  ASSERT_FALSE(reports.empty());
  const std::uint64_t total = static_cast<std::uint64_t>(data.size()) + 1;
  EXPECT_EQ(reports.back().first, total);
  EXPECT_EQ(reports.back().second, total);
  // The second-to-last distinct value must already cover every
  // fingerprint — reconcile consumed the deferred ones.
  ASSERT_GE(reports.size(), 2u);
  EXPECT_EQ(reports[reports.size() - 2].first, data.size());
}

TEST(ShardStream, CancellationFiresMidReconcileChunk) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  ShardConfig config = small_config();
  config.workers = 1;
  config.reconcile_chunk_users = 1;  // one GLOVE chunk per pass

  // Probe run: learn where the reconcile phase starts (progress counts
  // kept fingerprints first) and confirm a reconciliation GLOVE actually
  // runs, so the cancel below lands inside a chunk.
  TextStream probe{serialized.str()};
  StreamShardedResult full;
  (void)run_stream(probe, config, &full);
  ASSERT_GT(full.stats.reconciled_groups, 0u);
  const std::uint64_t kept =
      data.size() - full.stats.deferred_fingerprints;

  // The cancel lands while the run holds its spill, which must go too.
  const SpillRoot spill_root;
  util::CancellationToken token;
  util::RunHooks hooks;
  hooks.cancel = token;
  std::size_t spills_at_cancel = 0;
  hooks.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done > kept && !token.cancelled()) {
      spills_at_cancel = spill_root.entries();
      token.request_cancel();
    }
  };
  TextStream stream{serialized.str()};
  EXPECT_THROW((void)anonymize_sharded_stream(
                   stream, kGlove, config, [](cdr::Fingerprint&&) {}, hooks),
               util::CancelledError);
  EXPECT_EQ(spills_at_cancel, 1u);
  EXPECT_EQ(spill_root.entries(), 0u);
}

TEST(ShardStream, SourceWithoutIndexIsReadExactlyOnce) {
  // The tightest budgets give the most passes; none of them may touch the
  // source again: pass 1 spills it, every later pass fetches its members
  // from the spill, and the bytes match the in-memory run.
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  ShardConfig config = small_config();
  config.workers = 1;
  config.reconcile_chunk_users = 1;

  api::MemorySource memory{data};
  std::vector<cdr::Fingerprint> memory_groups =
      run_stream(memory, config, nullptr);

  const SpillRoot spill_root;
  TextStream stream{serialized.str()};
  StreamShardedResult result;
  std::vector<cdr::Fingerprint> groups;
  const std::string trace = run_traced(stream, config, &result, &groups);
  EXPECT_EQ(stream.yielded(), data.size());
  EXPECT_EQ(stream.rewinds(), 0u);
  ASSERT_GE(result.pass_fingerprints.size(), 4u);
  EXPECT_EQ(result.pass_fingerprints,
            test::read_once_passes(data.size(), trace));
  EXPECT_EQ(
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)}),
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(memory_groups)}));

  // The spill's accounting: the scan read its footer only, each later pass
  // fetched blocks, and the spill is gone once the run returns.
  ASSERT_TRUE(result.spill_io.has_value());
  const api::SourceIoStats& io = *result.spill_io;
  ASSERT_EQ(io.pass_blocks.size(), result.pass_fingerprints.size());
  EXPECT_EQ(io.pass_blocks[0], 0u);
  std::uint64_t fetched_blocks = 0;
  for (std::size_t i = 1; i < io.pass_blocks.size(); ++i) {
    EXPECT_GT(io.pass_blocks[i], 0u) << "pass " << i;
    EXPECT_LE(io.pass_blocks[i], io.file_blocks) << "pass " << i;
    fetched_blocks += io.pass_blocks[i];
  }
  EXPECT_EQ(io.blocks_read, fetched_blocks);
  EXPECT_EQ(spill_root.entries(), 0u);

  // An in-memory source is never spilled.
  StreamShardedResult memory_result;
  (void)run_stream(memory, config, &memory_result);
  EXPECT_FALSE(memory_result.spill_io.has_value());
}

TEST(ShardStream, SpillIsRemovedOnEveryExitPath) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  const ShardConfig config = small_config();
  const test::TempDir dir;  // made before TMPDIR moves
  const SpillRoot spill_root;

  // Success: the spill lives under TMPDIR while groups flow, then goes.
  {
    TextStream stream{serialized.str()};
    std::size_t spills_seen = 0;
    (void)anonymize_sharded_stream(
        stream, kGlove, config, [&](cdr::Fingerprint&&) {
          spills_seen = std::max(spills_seen, spill_root.entries());
        });
    EXPECT_EQ(spills_seen, 1u);
    EXPECT_EQ(spill_root.entries(), 0u);
  }

  // A sink that throws mid-run.
  {
    TextStream stream{serialized.str()};
    EXPECT_THROW((void)anonymize_sharded_stream(
                     stream, kGlove, config,
                     [](cdr::Fingerprint&&) {
                       throw std::runtime_error{"sink failed"};
                     }),
                 std::runtime_error);
    EXPECT_EQ(spill_root.entries(), 0u);
  }

  // A malformed row mid-file: the spill is half written when pass 1
  // fails.
  {
    std::string text = serialized.str();
    const std::size_t row = text.find('\n', text.size() / 2) + 1;
    text.replace(row, text.find('\n', row) - row, "not,a,fingerprint,row");
    const std::string path = dir.file("malformed.csv");
    std::ofstream{path} << text;
    api::CsvFileSource source{path};
    EXPECT_THROW((void)run_stream(source, config, nullptr),
                 util::DatasetError);
    EXPECT_EQ(spill_root.entries(), 0u);
  }
}

TEST(ShardStream, EmptyAndSubKStreamsRaiseDatasetError) {
  const cdr::FingerprintDataset empty;
  api::MemorySource empty_stream{empty};
  EXPECT_THROW((void)run_stream(empty_stream, small_config(), nullptr),
               util::DatasetError);

  const cdr::FingerprintDataset three = test::small_synth_dataset(3);
  core::GloveConfig demanding_glove;
  demanding_glove.k = 100;
  ShardConfig demanding = small_config();
  demanding.max_shard_users = 128;  // keep the *config* itself valid
  api::MemorySource short_stream{three};
  EXPECT_THROW(
      (void)run_stream(short_stream, demanding, nullptr, demanding_glove),
               util::DatasetError);
}

}  // namespace
}  // namespace glove::shard
