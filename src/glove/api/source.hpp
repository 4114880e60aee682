// DatasetSource: the pull side of the Engine's streaming run boundary.
//
// A source yields fingerprints one at a time.  Multi-pass strategies (the
// sharded backend plans on a first pass and materializes shard batches on
// later ones) read it exactly once: an indexed source (GlovebinSource,
// MemorySource) serves the planning scan from summaries() and the later
// passes by fetch(), and any other source is copied into a private
// SourceSpill on the first pass, so the input file is never re-parsed.
// MemorySource adapts an existing in-memory dataset — the legacy
// dataset-in/dataset-out Engine overload is a thin wrapper around it — and
// CsvFileSource streams a fingerprint-dataset CSV straight off disk
// through cdr::DatasetStreamReader.

#ifndef GLOVE_API_SOURCE_HPP
#define GLOVE_API_SOURCE_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "glove/cdr/binio.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/cdr/io.hpp"
#include "glove/util/hooks.hpp"

namespace glove::api {

/// Io accounting an index-capable source exposes for the run report's
/// `io` section.  `pass_blocks` records, per planning/materialization
/// pass, how many payload blocks the pass decoded (0 for an index-only
/// planning pass); `blocks_read`/`bytes_mapped` are the cumulative
/// totals.
struct SourceIoStats {
  std::uint64_t file_blocks = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t bytes_mapped = 0;
  std::vector<std::uint64_t> pass_blocks;
};

class DatasetSource {
 public:
  virtual ~DatasetSource() = default;

  /// Stable identifier of the source's transport ("memory", "csv-file"),
  /// recorded in the run report.
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;

  /// Dataset name carried into reports and output naming (the in-memory
  /// dataset's name, or the file path).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Yields the next fingerprint.  Returns false at end of input; may
  /// throw (e.g. std::invalid_argument on malformed rows).
  virtual bool next(cdr::Fingerprint& fingerprint) = 0;

  /// Restarts the sequence from the first fingerprint, including after
  /// EOF.  No strategy re-reads a source: the sharded stream scans it once
  /// and serves later passes from fetch() or a SourceSpill.  Kept for
  /// callers that consume one source more than once.
  virtual void rewind() = 0;

  /// Fingerprint count when the source knows it upfront (memory sources
  /// do, file sources do not).
  [[nodiscard]] virtual std::optional<std::uint64_t> size_hint() const {
    return std::nullopt;
  }

  /// Zero-copy escape hatch: the backing dataset when this source is an
  /// adapter over one already in memory, else nullptr.  The Engine's
  /// collect-then-run fallback then borrows the dataset instead of
  /// copying it; streaming strategies read every source through
  /// summaries()/fetch() or a SourceSpill alike.
  [[nodiscard]] virtual const cdr::FingerprintDataset* materialized()
      const noexcept {
    return nullptr;
  }

  /// Index fast path for planning scans: when the source can serve
  /// per-fingerprint summaries (cdr::fingerprint_summary, in stream order:
  /// a glovebin footer stores them, an in-memory dataset computes them),
  /// fills `out` and returns true — the caller then skips streaming the
  /// payload entirely.  Default: unsupported.
  virtual bool summaries(std::vector<cdr::FingerprintSummary>& out) {
    (void)out;
    return false;
  }

  /// Index fast path for the materialization passes after the planning
  /// scan: fetches exactly the fingerprints whose stream index keys
  /// `slot_of_id`, storing each at its mapped slot in `store` (pre-sized
  /// by the caller), and returns how many it materialized.  A source that
  /// serves summaries() must serve fetch() too.  Sources without random
  /// access return nullopt; the sharded stream then reads them once, into
  /// a SourceSpill, and fetches from the spill.
  virtual std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) {
    (void)slot_of_id;
    (void)store;
    return std::nullopt;
  }

  /// Io accounting for the run report when this source tracks it
  /// (index-capable file sources), else nullptr.
  [[nodiscard]] virtual const SourceIoStats* io_stats() const noexcept {
    return nullptr;
  }

  /// Path of the file backing this source, when there is one; in-memory
  /// sources return nullopt.  Informational only: the sharded backend
  /// reads every pass through next()/fetch(), never by path.
  [[nodiscard]] virtual std::optional<std::string> file_path() const {
    return std::nullopt;
  }

  /// Binds the run's cancellation token so long block loops *inside* the
  /// source (GlovebinSource::fetch maps whole block runs per call) get
  /// poll points of their own — without it a cancel only lands between
  /// fingerprints the strategy pulls.  Engine::run binds config.cancel
  /// before dispatching; an unbound source never cancels.
  void bind_cancel(std::optional<util::CancellationToken> token) noexcept {
    cancel_ = std::move(token);
  }

 protected:
  /// Poll point for source-side loops (throws util::CancelledError).
  void throw_if_cancelled() const {
    if (cancel_ && cancel_->cancelled()) throw util::CancelledError{};
  }

 private:
  std::optional<util::CancellationToken> cancel_;
};

/// Streams an existing in-memory dataset (copies on yield; the dataset
/// must outlive the source).  Serves the index fast paths like a file
/// source, so a sharded run reads it on the same data plane: summaries()
/// computes each fingerprint's cdr::fingerprint_summary in parallel on
/// the shared pool, fetch() copies each requested fingerprint into its
/// slot.
class MemorySource final : public DatasetSource {
 public:
  explicit MemorySource(const cdr::FingerprintDataset& data) noexcept
      : data_{&data} {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "memory";
  }
  [[nodiscard]] std::string name() const override { return data_->name(); }
  bool next(cdr::Fingerprint& fingerprint) override;
  void rewind() override { cursor_ = 0; }
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return data_->size();
  }
  [[nodiscard]] const cdr::FingerprintDataset* materialized()
      const noexcept override {
    return data_;
  }
  bool summaries(std::vector<cdr::FingerprintSummary>& out) override;
  std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) override;

 private:
  const cdr::FingerprintDataset* data_;
  std::size_t cursor_ = 0;
};

/// Streams a fingerprint-dataset CSV (the write_dataset_csv format) from
/// a file, holding O(1 fingerprint) memory.  Throws std::runtime_error
/// when the file cannot be opened; parse failures carry the path and row
/// number and surface as util::DatasetError (kInvalidDataset at the
/// Engine boundary).  It has no index, so the sharded stream parses it
/// once and serves its later passes from a SourceSpill.  `rewind()` seeks
/// back to the start for callers that consume the file more than once.
class CsvFileSource final : public DatasetSource {
 public:
  explicit CsvFileSource(std::string path);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "csv-file";
  }
  [[nodiscard]] std::string name() const override { return path_; }
  bool next(cdr::Fingerprint& fingerprint) override;
  void rewind() override;
  [[nodiscard]] std::optional<std::string> file_path() const override {
    return path_;
  }

 private:
  std::string path_;
  std::ifstream in_;
  cdr::DatasetStreamReader reader_;
};

/// Streams a glovebin file (cdr/binio.hpp), decoding one block range at a
/// time, and serves the index fast paths: summaries() reads the footer
/// instead of the payload and fetch() maps only the blocks holding the
/// requested fingerprints, a bounded window of them per mmap.  Throws
/// std::runtime_error with the path when the file cannot be opened or
/// fails validation; corrupt block payloads surface as util::DatasetError
/// (kInvalidDataset at the Engine boundary), matching CsvFileSource's
/// malformed-row behavior.
class GlovebinSource final : public DatasetSource {
 public:
  explicit GlovebinSource(std::string path);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "glovebin-file";
  }
  [[nodiscard]] std::string name() const override { return reader_.path(); }
  /// The dataset name stored in the footer (the converter preserves it).
  [[nodiscard]] const std::string& dataset_name() const noexcept {
    return reader_.dataset_name();
  }
  bool next(cdr::Fingerprint& fingerprint) override;
  void rewind() override;
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return reader_.fingerprint_count();
  }
  bool summaries(std::vector<cdr::FingerprintSummary>& out) override;
  std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) override;
  [[nodiscard]] const SourceIoStats* io_stats() const noexcept override;
  [[nodiscard]] std::optional<std::string> file_path() const override {
    return reader_.path();
  }

 private:
  cdr::GlovebinReader reader_;
  std::vector<cdr::Fingerprint> buffer_;  ///< sequential-scan block window
  std::size_t buffer_cursor_ = 0;
  std::size_t next_block_ = 0;
  mutable SourceIoStats stats_;
};

/// A private glovebin copy of a source that has no index of its own, so a
/// multi-pass consumer reads the input exactly once.  The constructor
/// drains `source` with next() — the only read of it — writing each
/// fingerprint through cdr::GlovebinWriter into a fresh private directory
/// under std::filesystem::temp_directory_path() ($TMPDIR, else /tmp), then
/// opens the file as a GlovebinSource bound to `hooks.cancel`.  The spill
/// needs about 1.5-1.7x the CSV's size of free space there.  The destructor
/// closes the file and removes it with its directory, however the run
/// ends; a constructor that throws (a malformed row, a cancel, a full
/// disk) removes what it wrote too.
class SourceSpill {
 public:
  SourceSpill(DatasetSource& source, const util::RunHooks& hooks);

  /// The spilled copy: fingerprints in the source's order, with the
  /// summaries() and fetch() index fast paths.
  [[nodiscard]] GlovebinSource& source() noexcept { return *spill_; }

 private:
  /// Owns the private directory; declared before spill_ so the file is
  /// closed before the directory is removed.
  struct Directory {
    Directory();
    ~Directory();
    Directory(const Directory&) = delete;
    Directory& operator=(const Directory&) = delete;
    std::string path;
  };

  Directory dir_;
  std::unique_ptr<GlovebinSource> spill_;
};

/// Opens `path` as the matching file source: GlovebinSource when the file
/// leads with the glovebin magic, CsvFileSource otherwise.
[[nodiscard]] std::unique_ptr<DatasetSource> open_dataset_source(
    const std::string& path);

/// Materializes everything the source still holds into a dataset named
/// after the source — the collect-then-run fallback for strategies that
/// need the full pair matrix.
[[nodiscard]] cdr::FingerprintDataset collect(DatasetSource& source);

}  // namespace glove::api

#endif  // GLOVE_API_SOURCE_HPP
