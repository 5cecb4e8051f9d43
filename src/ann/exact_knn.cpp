#include "src/ann/exact_knn.hpp"

#include <algorithm>
#include <cassert>

namespace apx {

ExactKnnIndex::ExactKnnIndex(std::size_t dim) : dim_(dim) {
  assert(dim > 0);
}

void ExactKnnIndex::insert(VecId id, const FeatureVec& v) {
  assert(v.size() == dim_);
  [[maybe_unused]] const auto [_, inserted] = vectors_.emplace(id, v);
  assert(inserted && "duplicate id");
}

bool ExactKnnIndex::remove(VecId id) { return vectors_.erase(id) > 0; }

void ExactKnnIndex::query_batch_into(std::span<const float> queries,
                                     std::size_t count, std::size_t k,
                                     IndexScratch* scratch,
                                     std::span<std::vector<Neighbor>> results,
                                     QueryStats* stats) const {
  (void)scratch;
  assert(queries.size() == count * dim_);
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const float> q = queries.subspan(i * dim_, dim_);
    std::vector<Neighbor>& out = results[i];
    out.clear();
    out.reserve(vectors_.size());
    for (const auto& [id, v] : vectors_) {
      out.push_back({id, l2(q, v)});
    }
    const std::size_t take = std::min(k, out.size());
    std::partial_sort(out.begin(),
                      out.begin() + static_cast<std::ptrdiff_t>(take),
                      out.end(), closer);
    out.resize(take);
    if (stats != nullptr) {
      stats[i] = QueryStats{};
      stats[i].candidates = vectors_.size();
      stats[i].set_range(out);
    }
  }
}

}  // namespace apx
