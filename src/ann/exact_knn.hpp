#pragma once
// Exact k-nearest-neighbour index by linear scan. The correctness baseline
// every approximate index is validated against, and the right choice for
// small caches where a scan beats hashing overhead.

#include <unordered_map>

#include "src/ann/index.hpp"

namespace apx {

/// Linear-scan exact kNN.
///
/// Thread-safety: the scan keeps no query state (make_scratch() returns
/// nullptr), so query_batch_into() is safe for concurrent callers. Only
/// insert()/remove() require exclusive access.
class ExactKnnIndex final : public NnIndex {
 public:
  explicit ExactKnnIndex(std::size_t dim);

  void insert(VecId id, const FeatureVec& v) override;
  bool remove(VecId id) override;
  /// Scores every stored vector into results[i] (reusing its capacity),
  /// then partial-sorts the top k — zero heap allocations once the result
  /// buffers have grown to the index size. Reports the full scan size as
  /// the candidate count; `scratch` is ignored.
  void query_batch_into(std::span<const float> queries, std::size_t count,
                        std::size_t k, IndexScratch* scratch,
                        std::span<std::vector<Neighbor>> results,
                        QueryStats* stats = nullptr) const override;
  std::size_t size() const noexcept override { return vectors_.size(); }
  std::size_t dim() const noexcept override { return dim_; }

 private:
  std::size_t dim_;
  std::unordered_map<VecId, FeatureVec> vectors_;
};

}  // namespace apx
