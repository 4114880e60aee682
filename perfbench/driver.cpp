// perfbench_driver: one measured step of a benchmark workload, driven by
// perfbench/run.py.  Every step prints exactly one JSON object on stdout.
//
//   perfbench_driver gen --workload=W --seed=N --dir=D
//       Generates the workload's input into D and times it (set-up).
//   perfbench_driver run --workload=W --dir=D [--trace=FILE]
//       Runs one operation on D's input through the public API, times it,
//       and checks the output.  With --trace the source and sink are
//       wrapped in timing adapters, the span recorder is on, a kernel probe
//       runs after the operation, and the trace is written to FILE.
//
// Workloads (see perfbench/README.md for why each exists):
//   halo-csv         CSV file -> Engine::run(sharded, 1 km halo) -> CSV file
//   shards-glovebin  glovebin -> Engine::run(sharded, no border) -> glovebin
//   serve-hourly     time-ordered CDR events -> WindowAccumulator ->
//                    SnapshotPublisher::publish_window, 60-minute windows
//
// Each workload has a fixed synthetic base population (civ-like region,
// antenna network and users all drawn from the workload's region seed);
// --seed draws which kSampleFraction of those users make up the input.
// Two seeds therefore share most users but never the same input bytes,
// which keeps the cost of one operation comparable across seeds.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "glove/api/engine.hpp"
#include "glove/api/report.hpp"
#include "glove/api/sink.hpp"
#include "glove/api/source.hpp"
#include "glove/cdr/builder.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/scalability.hpp"
#include "glove/core/stretch.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/serve/config.hpp"
#include "glove/serve/publish.hpp"
#include "glove/serve/window.hpp"
#include "glove/stats/json.hpp"
#include "glove/synth/generator.hpp"
#include "glove/util/mem.hpp"

namespace {

using namespace glove;
using Clock = std::chrono::steady_clock;
using stats::Json;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class InputKind { kCsv, kGlovebin, kEvents };

struct Workload {
  std::string_view name;
  /// Users in the base population (about kSampleFraction of them are kept).
  std::size_t base_users;
  double days;
  /// Seed of the civ-like preset: its region and its population.
  std::uint64_t region_seed;
  InputKind input;
  std::size_t shard_users;
  std::size_t reconcile_chunk_users;
  shard::BorderPolicy border;
};

constexpr std::uint32_t kK = 2;
constexpr double kWindowMin = 60.0;
constexpr double kSampleFraction = 0.95;

const Workload kWorkloads[] = {
    {"halo-csv", 15'789, 2.0, 11, InputKind::kCsv, 500, 2'000,
     shard::BorderPolicy::kHalo},
    {"shards-glovebin", 21'053, 1.0, 3, InputKind::kGlovebin, 2'000, 0,
     shard::BorderPolicy::kNone},
    {"serve-hourly", 21'053, 2.0, 11, InputKind::kEvents, 2'000, 0,
     shard::BorderPolicy::kHalo},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument{"unknown workload: " + std::string{name}};
}

std::string input_path(const Workload& w, const std::string& dir) {
  switch (w.input) {
    case InputKind::kCsv:
      return dir + "/input.csv";
    case InputKind::kGlovebin:
      return dir + "/input.glovebin";
    case InputKind::kEvents:
      break;
  }
  return dir + "/events.csv";
}

std::string output_path(const Workload& w, const std::string& dir) {
  return w.input == InputKind::kGlovebin ? dir + "/output.glovebin"
                                         : dir + "/output.csv";
}

synth::SynthConfig synth_config(const Workload& w) {
  synth::SynthConfig config = synth::civ_like(w.base_users, w.region_seed);
  config.days = w.days;
  return config;
}

/// True when `user` belongs to the population sample drawn by `seed`
/// (a splitmix64 hash of both, so the choice is per user and stable).
bool sampled(std::uint64_t seed, cdr::UserId user) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + user;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 < kSampleFraction;
}

api::RunConfig run_config(const Workload& w) {
  api::RunConfig config;
  config.strategy = std::string{api::kStrategySharded};
  config.k = kK;
  config.sharded.tile_size_m = 0.0;  // adaptive, as the CLI default
  config.sharded.max_shard_users = w.shard_users;
  config.sharded.workers = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  config.sharded.border = w.border;
  config.sharded.halo_m = 1'000.0;
  config.sharded.reconcile_chunk_users = w.reconcile_chunk_users;
  return config;
}

serve::ServeConfig serve_config(const Workload& w, const std::string& dir) {
  serve::ServeConfig config;
  config.window_min = kWindowMin;
  config.builder.projection_origin = geo::LatLon{6.82, -5.28};
  config.run = run_config(w);
  config.out_dir = dir + "/serve-out";
  config.snapshot_format = "csv";
  config.dataset_name = "serve";
  return config;
}

/// FNV-1a over a file's bytes: the output digest compared across
/// repetitions and between the traced and untraced runs.
std::string file_digest(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::vector<char> buffer(1 << 16);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i < got; ++i) {
      hash ^= static_cast<unsigned char>(buffer[i]);
      hash *= 0x100000001b3ULL;
    }
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

cdr::FingerprintDataset read_dataset(const std::string& path) {
  const std::unique_ptr<api::DatasetSource> source =
      api::open_dataset_source(path);
  return api::collect(*source);
}

// --- Timing adapters for the traced run ---------------------------------

/// Forwards every DatasetSource virtual to `inner`, timing each call and
/// recording a span around it.  Forwarding the index fast paths
/// (summaries, fetch, io_stats, materialized, file_path) keeps the traced
/// run on the same data plane as the untraced one.
class TimedSource final : public api::DatasetSource {
 public:
  explicit TimedSource(api::DatasetSource& inner) : inner_{&inner} {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  bool next(cdr::Fingerprint& fingerprint) override {
    GLOVE_SPAN("bench.source.next");
    const Clock::time_point start = Clock::now();
    const bool got = inner_->next(fingerprint);
    charge(start);
    if (got) ++fingerprints_;
    return got;
  }
  void rewind() override {
    GLOVE_SPAN("bench.source.rewind");
    const Clock::time_point start = Clock::now();
    inner_->rewind();
    charge(start);
  }
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  [[nodiscard]] const cdr::FingerprintDataset* materialized()
      const noexcept override {
    return inner_->materialized();
  }
  bool summaries(std::vector<cdr::FingerprintSummary>& out) override {
    GLOVE_SPAN("bench.source.summaries");
    const Clock::time_point start = Clock::now();
    const bool served = inner_->summaries(out);
    charge(start);
    return served;
  }
  std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) override {
    GLOVE_SPAN("bench.source.fetch");
    const Clock::time_point start = Clock::now();
    const std::optional<std::uint64_t> fetched =
        inner_->fetch(slot_of_id, store);
    charge(start);
    if (fetched) fingerprints_ += *fetched;
    return fetched;
  }
  [[nodiscard]] const api::SourceIoStats* io_stats() const noexcept override {
    return inner_->io_stats();
  }
  [[nodiscard]] std::optional<std::string> file_path() const override {
    return inner_->file_path();
  }

  [[nodiscard]] Json stats() const {
    return Json::object()
        .set("seconds", seconds_)
        .set("calls", calls_)
        .set("fingerprints", fingerprints_);
  }

 private:
  void charge(Clock::time_point start) {
    seconds_ += seconds_since(start);
    ++calls_;
  }

  api::DatasetSource* inner_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
  std::uint64_t fingerprints_ = 0;
};

/// Forwards every DatasetSink virtual to `inner`, timing each call.  Note
/// DatasetSink::write counts the sink.* obs counters on both the wrapper
/// and the inner sink, so a wrapped run's report double-counts them.
class TimedSink final : public api::DatasetSink {
 public:
  explicit TimedSink(api::DatasetSink& inner) : inner_{&inner} {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return inner_->kind();
  }
  void begin(const std::string& dataset_name) override {
    GLOVE_SPAN("bench.sink.begin");
    const Clock::time_point start = Clock::now();
    inner_->begin(dataset_name);
    charge(start);
  }
  void finish() override {
    GLOVE_SPAN("bench.sink.finish");
    const Clock::time_point start = Clock::now();
    inner_->finish();
    charge(start);
  }

  [[nodiscard]] Json stats() const {
    return Json::object().set("seconds", seconds_).set("calls", calls_);
  }

 protected:
  void do_write(cdr::Fingerprint group) override {
    GLOVE_SPAN("bench.sink.write");
    const Clock::time_point start = Clock::now();
    inner_->write(std::move(group));
    charge(start);
  }

 private:
  void charge(Clock::time_point start) {
    seconds_ += seconds_since(start);
    ++calls_;
  }

  api::DatasetSink* inner_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
};

// --- Output checks --------------------------------------------------------

/// Checks a published dataset against the input it anonymizes: every group
/// hides >= k users, group sizes add up to the input users minus the
/// discarded ones, and every original sample is covered by its group
/// (record-level truthfulness).  Also reports the accuracy medians.
Json check_output(const cdr::FingerprintDataset& original,
                  const cdr::FingerprintDataset& published,
                  std::uint64_t discarded) {
  const bool k_anonymous = core::is_k_anonymous(published, kK);
  const bool users_conserved =
      published.total_users() + discarded == original.total_users();
  const std::uint64_t uncovered =
      core::count_uncovered_samples(original, published);
  const core::AccuracySummary accuracy =
      core::summarize_accuracy(core::measure_accuracy(published));
  return Json::object()
      .set("passed", k_anonymous && users_conserved && uncovered == 0)
      .set("k_anonymous", k_anonymous)
      .set("users_conserved", users_conserved)
      .set("published_users", published.total_users())
      .set("input_users", original.total_users())
      .set("uncovered_samples", uncovered)
      .set("pos_median_m", accuracy.median_position_m)
      .set("time_median_min", accuracy.median_time_min);
}

// --- Kernel probe -----------------------------------------------------------

/// Times core::fingerprint_stretch over neighbouring pairs of the input in
/// locality order, so kernel work is measured on the fingerprint sizes the
/// workload actually holds.
Json kernel_probe(const cdr::FingerprintDataset& data) {
  GLOVE_SPAN("bench.probe");
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  order.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    order.emplace_back(
        core::locality_sort_key(core::fingerprint_bounds(data[i])), i);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::pair<const cdr::Fingerprint*, const cdr::Fingerprint*>>
      pairs;
  std::vector<double> products;
  double pass_sample_pairs = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const cdr::Fingerprint& a = data[order[i].second];
    const cdr::Fingerprint& b = data[order[i + 1].second];
    pairs.emplace_back(&a, &b);
    const double product =
        static_cast<double>(a.size()) * static_cast<double>(b.size());
    products.push_back(product);
    pass_sample_pairs += product;
  }
  const core::StretchLimits limits;
  double checksum = 0.0;
  for (const auto& [a, b] : pairs) {  // warm-up pass
    checksum += core::fingerprint_stretch(*a, *b, limits);
  }
  std::uint64_t passes = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    for (const auto& [a, b] : pairs) {
      checksum += core::fingerprint_stretch(*a, *b, limits);
    }
    ++passes;
    elapsed = seconds_since(start);
  } while (elapsed < 0.5);
  const double calls = static_cast<double>(passes * pairs.size());
  std::sort(products.begin(), products.end());
  const auto quantile = [&](double q) {
    if (products.empty()) return 0.0;
    return products[static_cast<std::size_t>(
        q * static_cast<double>(products.size() - 1))];
  };
  return Json::object()
      .set("pairs", static_cast<std::uint64_t>(pairs.size()))
      .set("passes", passes)
      .set("seconds", elapsed)
      .set("ns_per_call", calls > 0.0 ? elapsed * 1e9 / calls : 0.0)
      .set("sample_pairs_per_s",
           elapsed > 0.0
               ? pass_sample_pairs * static_cast<double>(passes) / elapsed
               : 0.0)
      .set("mamb_p10", quantile(0.10))
      .set("mamb_p50", quantile(0.50))
      .set("mamb_p90", quantile(0.90))
      .set("checksum", checksum);
}

Json obs_json(const obs::MetricsSnapshot& before) {
  Json counters = Json::object();
  for (const auto& [name, value] :
       obs::counter_delta(before, obs::snapshot_metrics())) {
    counters.set(name, value);
  }
  return counters;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  out << text;
  if (!out) throw std::runtime_error{"cannot write " + path};
}

// --- Steps ------------------------------------------------------------------

Json gen(const Workload& w, std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = input_path(w, dir);
  const Clock::time_point start = Clock::now();
  const synth::SynthConfig config = synth_config(w);
  std::vector<cdr::PlanarEvent> planar = synth::generate_events(config);
  std::erase_if(planar, [&](const cdr::PlanarEvent& e) {
    return !sampled(seed, e.user);
  });
  if (w.input == InputKind::kEvents) {
    std::stable_sort(planar.begin(), planar.end(),
                     [](const cdr::PlanarEvent& a, const cdr::PlanarEvent& b) {
                       return a.time_min < b.time_min;
                     });
    cdr::write_cdr_file(path, synth::to_latlon_events(planar, config));
  } else {
    cdr::FingerprintDataset data = cdr::build_fingerprints(planar, {});
    data.set_name(config.name);
    const std::unique_ptr<api::DatasetSink> sink =
        api::make_dataset_sink(path);
    sink->begin(data.name());
    for (const cdr::Fingerprint& fp : data.fingerprints()) sink->write(fp);
    sink->finish();
  }
  return Json::object()
      .set("gen_s", seconds_since(start))
      .set("input_bytes",
           static_cast<std::uint64_t>(std::filesystem::file_size(path)));
}

Json run_batch(const Workload& w, const std::string& dir, bool traced) {
  const std::string in = input_path(w, dir);
  const std::string out = output_path(w, dir);
  const api::Engine engine;
  const api::RunConfig config = run_config(w);

  const Clock::time_point open_start = Clock::now();
  const std::unique_ptr<api::DatasetSource> source =
      api::open_dataset_source(in);
  const std::unique_ptr<api::DatasetSink> sink = api::make_dataset_sink(out);
  const double open_s = seconds_since(open_start);

  TimedSource timed_source{*source};
  TimedSink timed_sink{*sink};
  api::DatasetSource& run_source =
      traced ? static_cast<api::DatasetSource&>(timed_source) : *source;
  api::DatasetSink& run_sink =
      traced ? static_cast<api::DatasetSink&>(timed_sink) : *sink;

  const Clock::time_point start = Clock::now();
  api::Result<api::RunReport> outcome = [&] {
    GLOVE_SPAN("bench.op");
    return engine.run(run_source, run_sink, config);
  }();
  const double wall_s = seconds_since(start);
  const std::uint64_t peak_rss = util::peak_rss_bytes();

  Json result = Json::object();
  result.set("open_s", open_s)
      .set("wall_s", wall_s)
      .set("peak_rss_bytes", peak_rss);
  if (!outcome.ok()) {
    return result.set("ok", false).set(
        "error", std::string{api::to_string(outcome.error().code)} + ": " +
                     outcome.error().message);
  }
  const api::RunReport& report = outcome.value();
  const cdr::FingerprintDataset original = read_dataset(in);
  const cdr::FingerprintDataset published = read_dataset(out);
  result.set("ok", true)
      .set("digest", file_digest(out))
      .set("output_bytes",
           static_cast<std::uint64_t>(std::filesystem::file_size(out)))
      .set("input_fingerprints", static_cast<std::uint64_t>(original.size()))
      .set("input_samples", original.total_samples())
      .set("checks", check_output(original, published,
                                  report.counters.discarded_fingerprints))
      .set("report", api::report_json(report));
  if (traced) {
    result.set("source", timed_source.stats())
        .set("sink", timed_sink.stats())
        .set("probe", kernel_probe(original));
  }
  return result;
}

/// Users with at least one event: the fingerprints the event file holds.
std::uint64_t distinct_users(const std::vector<cdr::CdrEvent>& events) {
  cdr::UserId max_user = 0;
  for (const cdr::CdrEvent& e : events) max_user = std::max(max_user, e.user);
  std::vector<char> seen(static_cast<std::size_t>(max_user) + 1, 0);
  for (const cdr::CdrEvent& e : events) seen[e.user] = 1;
  return static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), 1));
}

/// The events the publisher accepted: it drops events of users already
/// covered by a release, so replaying the windows with the per-window
/// publish outcomes reconstructs exactly the events it anonymized.
std::vector<cdr::CdrEvent> accepted_events(
    const std::vector<cdr::CdrEvent>& events,
    const std::vector<char>& window_published) {
  cdr::UserId max_user = 0;
  for (const cdr::CdrEvent& e : events) max_user = std::max(max_user, e.user);
  std::vector<char> published(static_cast<std::size_t>(max_user) + 1, 0);
  std::vector<cdr::UserId> pending;
  std::vector<cdr::CdrEvent> accepted;
  std::size_t window = 0;
  const auto fold = [&](const serve::ClosedWindow& closed) {
    for (const cdr::CdrEvent& e : closed.events) {
      if (published[e.user]) continue;
      accepted.push_back(e);
      pending.push_back(e.user);
    }
    if (window < window_published.size() && window_published[window]) {
      for (const cdr::UserId u : pending) published[u] = 1;
      pending.clear();
    }
    ++window;
  };
  serve::WindowAccumulator accumulator{kWindowMin};
  for (const cdr::CdrEvent& e : events) {
    accumulator.add(e);
    while (accumulator.window_ready()) fold(accumulator.close_window());
  }
  fold(accumulator.close_final());
  return accepted;
}

Json run_serve(const Workload& w, const std::string& dir, bool traced) {
  const serve::ServeConfig config = serve_config(w, dir);
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);
  const api::Engine engine;

  // The serve source is the event file, decoded whole before the replay;
  // each read_cdr_file call is one pass over it.
  std::uint64_t source_reads = 0;
  const Clock::time_point open_start = Clock::now();
  const std::vector<cdr::CdrEvent> events = [&] {
    ++source_reads;
    return cdr::read_cdr_file(input_path(w, dir));
  }();
  const double decode_s = seconds_since(open_start);
  serve::SnapshotPublisher publisher{config, engine};
  serve::WindowAccumulator accumulator{config.window_min};
  const double open_s = seconds_since(open_start);

  std::vector<double> epoch_s;
  std::vector<char> window_published;
  std::vector<std::string> snapshots;
  std::uint64_t newcomers = 0;
  std::uint64_t failed_epochs = 0;
  std::string error;
  double window_s = 0.0;
  const obs::MetricsSnapshot before = obs::snapshot_metrics();

  const auto publish = [&](const serve::ClosedWindow& closed) {
    GLOVE_SPAN("bench.publish");
    const Clock::time_point start = Clock::now();
    const serve::EpochResult result = publisher.publish_window(closed);
    const double latency = seconds_since(start);
    window_published.push_back(result.published ? 1 : 0);
    if (result.published) {
      epoch_s.push_back(latency);
      snapshots.push_back(result.snapshot_path);
      newcomers += result.newcomers;
    }
  };

  const Clock::time_point start = Clock::now();
  try {
    GLOVE_SPAN("bench.op");
    std::size_t next = 0;
    for (;;) {
      serve::ClosedWindow closed;
      bool complete = false;
      {
        GLOVE_SPAN("bench.window");
        const Clock::time_point window_start = Clock::now();
        while (next < events.size() && !accumulator.window_ready()) {
          accumulator.add(events[next++]);
        }
        complete = accumulator.window_ready();
        closed = complete ? accumulator.close_window()
                          : accumulator.close_final();
        window_s += seconds_since(window_start);
      }
      if (complete) {
        publish(closed);
        continue;
      }
      // Drain, as the daemon does: the final partial window publishes when
      // it holds events or users are still pending.
      if (!closed.events.empty() || publisher.pending_events() > 0) {
        publish(closed);
      }
      break;
    }
  } catch (const std::exception& e) {
    ++failed_epochs;
    error = e.what();
  }
  const double wall_s = seconds_since(start);
  const std::uint64_t peak_rss = util::peak_rss_bytes();

  Json latencies = Json::array();
  for (const double s : epoch_s) latencies.push(s);
  std::uint64_t snapshot_bytes = 0;
  for (const std::string& path : snapshots) {
    snapshot_bytes += std::filesystem::file_size(path);
  }
  Json result = Json::object();
  result.set("open_s", open_s)
      .set("wall_s", wall_s)
      .set("peak_rss_bytes", peak_rss)
      .set("source", Json::object()
                         .set("seconds", decode_s)
                         .set("calls", source_reads)
                         .set("passes", source_reads)
                         .set("fingerprints", distinct_users(events)))
      .set("events", static_cast<std::uint64_t>(events.size()))
      .set("epoch_s", std::move(latencies))
      .set("windows", static_cast<std::uint64_t>(window_published.size()))
      .set("window_s", window_s)
      .set("newcomers", newcomers)
      .set("failed_epochs", failed_epochs)
      .set("snapshot_bytes", snapshot_bytes)
      .set("out_dir", config.out_dir)
      .set("obs", obs_json(before));
  if (failed_epochs > 0 || snapshots.empty()) {
    return result.set("ok", false).set(
        "error", error.empty() ? "no epoch published" : error);
  }
  // Keep only the final release on disk; the digest and checks read it.
  const std::string last = snapshots.back();
  for (const std::string& path : snapshots) {
    if (path != last) std::filesystem::remove(path);
  }
  const cdr::FingerprintDataset original = cdr::build_fingerprints(
      accepted_events(events, window_published), config.builder);
  const cdr::FingerprintDataset published = read_dataset(last);
  result.set("ok", true)
      .set("digest", file_digest(last))
      .set("output_bytes",
           static_cast<std::uint64_t>(std::filesystem::file_size(last)))
      .set("input_fingerprints", static_cast<std::uint64_t>(original.size()))
      .set("input_samples", original.total_samples())
      .set("checks", check_output(original, published, 0));
  if (traced) result.set("probe", kernel_probe(original));
  return result;
}

struct Args {
  std::string mode;
  std::map<std::string, std::string> values;

  [[nodiscard]] const std::string& get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument{"missing --" + key};
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument{"usage: perfbench_driver gen|run"};
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument{"expected --key=value, got " + arg};
    }
    args.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload& workload = find_workload(args.get("workload"));
    const std::string& dir = args.get("dir");
    Json result;
    if (args.mode == "gen") {
      result = gen(workload, std::stoull(args.get("seed")), dir);
    } else if (args.mode == "run") {
      const auto trace = args.values.find("trace");
      const bool traced = trace != args.values.end();
      if (traced) obs::start_tracing();
      result = workload.input == InputKind::kEvents
                   ? run_serve(workload, dir, traced)
                   : run_batch(workload, dir, traced);
      if (traced) write_text(trace->second, obs::stop_tracing_and_render());
    } else {
      throw std::invalid_argument{"unknown mode: " + args.mode};
    }
    std::cout << result.dump(0) << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
