// RunConfig: the one validated configuration for every anonymization
// strategy the Engine can drive.  It is the paper's GLOVE parameter set
// (core::GloveConfig: k, stretch limits, suppression, reshape, leftover
// policy; W4M uses only k) plus one section per strategy, each the
// algorithm's own layout struct, ignored by the other strategies.  The
// run report echoes it back (api/report.hpp).

#ifndef GLOVE_API_CONFIG_HPP
#define GLOVE_API_CONFIG_HPP

#include <optional>
#include <string>

#include "glove/baseline/w4m.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/scalability.hpp"
#include "glove/shard/config.hpp"
#include "glove/util/hooks.hpp"

namespace glove::api {

/// Built-in strategy names (the registry accepts additional ones).
inline constexpr std::string_view kStrategyFull = "full";
inline constexpr std::string_view kStrategyChunked = "chunked";
inline constexpr std::string_view kStrategyPrunedKGap = "pruned-kgap";
inline constexpr std::string_view kStrategyIncremental = "incremental";
inline constexpr std::string_view kStrategyW4M = "w4m-baseline";
inline constexpr std::string_view kStrategySharded = "sharded";

struct RunConfig : core::GloveConfig {
  /// Registered Anonymizer to run (see Engine::strategies()).
  std::string strategy{kStrategyFull};

  // --- Strategy sections.
  core::ChunkedConfig chunked;
  baseline::W4MConfig w4m;
  shard::ShardConfig sharded;

  struct IncrementalSection {
    /// The already-published k-anonymized release; the run's input dataset
    /// is then the set of newcomers (single-user fingerprints).  When
    /// null, the run starts from an empty release and the newcomers are
    /// grouped among themselves.  The pointee must outlive the run.
    const cdr::FingerprintDataset* published = nullptr;
  } incremental;

  // --- Observability.
  /// Invoked with monotone non-decreasing `done` out of a fixed `total`
  /// (the Engine clamps out-of-order reports from worker threads).  The
  /// callback runs on the Engine's calling thread or a worker; it must be
  /// fast and must not re-enter the Engine.
  util::ProgressFn progress;
  /// Cooperative cancellation; request_cancel() (from any thread,
  /// including the progress callback) aborts the run with
  /// ErrorCode::kCancelled and no partial output.
  std::optional<util::CancellationToken> cancel;
};

}  // namespace glove::api

#endif  // GLOVE_API_CONFIG_HPP
