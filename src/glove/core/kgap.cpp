#include "glove/core/kgap.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "glove/util/parallel.hpp"

namespace glove::core {

std::vector<KGapEntry> k_gaps(const cdr::FingerprintDataset& data,
                              std::uint32_t k, const StretchLimits& limits,
                              const util::RunHooks& hooks) {
  if (k < 2) throw std::invalid_argument{"k-gap requires k >= 2"};
  if (data.size() < k) {
    throw std::invalid_argument{
        "k-gap requires at least k fingerprints in the dataset"};
  }
  const std::size_t n = data.size();
  const std::size_t neighbors = k - 1;
  std::vector<KGapEntry> result(n);

  // Progress (and the cancellation poll) tick per fixed quantum of pair
  // evaluations, not per completed row: one row costs n-1 stretch
  // evaluations, so per-row reporting starves the callback for the whole
  // row on large shards.  Work units are pair evaluations throughout —
  // total is n*(n-1) — and each worker folds its local tally into the
  // shared counter at most once per quantum, bounding both callback
  // frequency and lock traffic by work done.
  constexpr std::uint64_t kProgressQuantum = 8192;
  const std::uint64_t total_evals =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1);
  std::mutex progress_mutex;
  std::uint64_t evals_done = 0;

  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::pair<double, std::size_t>> row;
        row.reserve(n - 1);
        std::uint64_t local = 0;
        const auto tick = [&](bool force) {
          if (!force && local < kProgressQuantum) return;
          hooks.throw_if_cancelled();
          if (hooks.progress && local > 0) {
            const std::lock_guard lock{progress_mutex};
            evals_done += local;
            hooks.progress(evals_done, total_evals);
          }
          local = 0;
        };
        for (std::size_t a = begin; a < end; ++a) {
          hooks.throw_if_cancelled();
          row.clear();
          for (std::size_t b = 0; b < n; ++b) {
            if (b == a) continue;
            row.emplace_back(fingerprint_stretch(data[a], data[b], limits),
                             b);
            ++local;
            tick(/*force=*/false);
          }
          // Select the k-1 nearest fingerprints (ties by index for
          // determinism independent of thread count).
          std::partial_sort(
              row.begin(),
              row.begin() + static_cast<std::ptrdiff_t>(neighbors),
              row.end());
          KGapEntry& entry = result[a];
          entry.neighbors.reserve(neighbors);
          double total = 0.0;
          for (std::size_t i = 0; i < neighbors; ++i) {
            total += row[i].first;
            entry.neighbors.push_back(row[i].second);
          }
          entry.gap = total / static_cast<double>(neighbors);
        }
        tick(/*force=*/true);
      },
      /*min_chunk=*/1);
  return result;
}

std::vector<double> k_gap_values(const cdr::FingerprintDataset& data,
                                 std::uint32_t k,
                                 const StretchLimits& limits) {
  const std::vector<KGapEntry> entries = k_gaps(data, k, limits);
  std::vector<double> values;
  values.reserve(entries.size());
  for (const KGapEntry& e : entries) values.push_back(e.gap);
  return values;
}

}  // namespace glove::core
