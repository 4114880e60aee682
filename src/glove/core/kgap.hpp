// The k-gap (eq. 11): how hard it is to hide each subscriber in a crowd of
// k within the same dataset.  Drives the anonymizability analysis of Sec. 5.

#ifndef GLOVE_CORE_KGAP_HPP
#define GLOVE_CORE_KGAP_HPP

#include <cstdint>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/core/stretch.hpp"
#include "glove/util/hooks.hpp"

namespace glove::core {

/// k-gap of one user together with the identity of its k-1 nearest
/// fingerprints (the set N_a^{k-1} used by the Sec. 5.3 disaggregation).
struct KGapEntry {
  double gap = 0.0;                      ///< Delta_a^k, in [0, 1]
  std::vector<std::size_t> neighbors;    ///< indices of N_a^{k-1}, ascending
                                         ///< by stretch effort
};

/// Computes Delta_a^k for every fingerprint in `data` (eq. 11): the mean
/// fingerprint stretch effort to the k-1 nearest other fingerprints.
/// Work is parallelized across users on the shared thread pool.
/// Requires k >= 2 and data.size() >= k; throws std::invalid_argument
/// otherwise.  `hooks` are threaded into the O(|M|^2) matrix build:
/// progress units are completed rows (one per fingerprint, reported under
/// a lock so `done` stays monotone across worker threads), and
/// cancellation is polled per row, aborting via util::CancelledError.
[[nodiscard]] std::vector<KGapEntry> k_gaps(const cdr::FingerprintDataset& data,
                                            std::uint32_t k,
                                            const StretchLimits& limits = {},
                                            const util::RunHooks& hooks = {});

/// Convenience: just the gap values, same order as `data`.
[[nodiscard]] std::vector<double> k_gap_values(
    const cdr::FingerprintDataset& data, std::uint32_t k,
    const StretchLimits& limits = {});

}  // namespace glove::core

#endif  // GLOVE_CORE_KGAP_HPP
