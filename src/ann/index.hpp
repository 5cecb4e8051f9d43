#pragma once
// Nearest-neighbour index abstraction the approximate cache builds on.
// Implementations: ExactKnnIndex (linear scan baseline), PStableLshIndex,
// AdaptiveLshIndex (the A-LSH variant the poster's lineage uses) and
// QalshIndex (query-aware LSH).
// New backends register in make_index() (src/ann/factory.hpp).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "src/util/vecmath.hpp"

namespace apx {

class MetricsRegistry;

/// Identifier of an indexed vector (the cache's entry id).
using VecId = std::uint64_t;

/// One query result: an indexed vector and its exact L2 distance to the query.
struct Neighbor {
  VecId id = 0;
  float distance = 0.0f;
};

/// The order of query results: closer first, lower id on equal distances.
inline bool closer(const Neighbor& a, const Neighbor& b) noexcept {
  return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
}

/// Fills `out` with the k nearest of n scored rows, closest first by
/// closer(): exactly what a partial_sort of all n {id_of(i),
/// sqrt(l2_sq[i])} would keep, without building that n-entry array. A
/// k-sized max-heap runs over the squared distances; once it is full, a
/// row whose squared distance exceeds the square of the successor of the
/// k-th distance is skipped before its sqrt and id are computed (its sqrt
/// rounds above that distance).
template <class IdOf>
void select_nearest(std::span<const float> l2_sq, std::size_t k,
                    const IdOf& id_of, std::vector<Neighbor>& out) {
  out.clear();
  if (k == 0) return;
  double cut = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < l2_sq.size(); ++i) {
    if (static_cast<double>(l2_sq[i]) > cut) continue;
    const Neighbor cand{id_of(i), std::sqrt(l2_sq[i])};
    if (out.size() == k) {
      if (!closer(cand, out.front())) continue;
      std::pop_heap(out.begin(), out.end(), closer);
      out.back() = cand;
    } else {
      out.push_back(cand);
    }
    std::push_heap(out.begin(), out.end(), closer);
    if (out.size() == k && std::isfinite(out.front().distance)) {
      // Exact in double: a float's square needs at most 48 mantissa bits.
      const double next = std::nextafter(
          out.front().distance, std::numeric_limits<float>::infinity());
      cut = next * next;
    }
  }
  std::sort_heap(out.begin(), out.end(), closer);
}

/// Opaque per-caller working set for NnIndex::query_batch_into(). Backends
/// that keep reusable query buffers (the LSH family, QALSH) return their own
/// derived type from NnIndex::make_scratch(); one instance per querying
/// thread makes query_batch_into() safe for concurrent callers. It grows to
/// its high-water mark and is never shrunk, so steady-state queries
/// allocate nothing.
class IndexScratch {
 public:
  virtual ~IndexScratch() = default;
};

/// Why a QALSH frontier sweep stopped (the other backends leave kNone).
enum class SweepStop : std::uint8_t { kNone, kC1, kC2, kExhausted };

/// One query's report: its work accounting and the distance range it
/// returned. query_batch_into() fills one per query and keeps no copy, so
/// concurrent readers never share mutable index state; handing reports back
/// through NnIndex::observe_query_feedback() is how an index records its
/// per-query instruments and feeds its controller.
struct QueryStats {
  std::size_t candidates = 0;        ///< vectors whose distance was computed
  std::size_t rerank_survivors = 0;  ///< exact re-rank pass size (SQ8 only)
  std::size_t rounds = 0;            ///< virtual-rehash rounds (QALSH only)
  std::size_t collisions = 0;  ///< line entries collision-counted (QALSH)
  SweepStop stop = SweepStop::kNone;  ///< why the sweep ended (QALSH only)
  float nearest = -1.0f;   ///< closest returned distance, -1 when none
  float farthest = -1.0f;  ///< farthest returned distance, -1 when none

  /// Sets nearest/farthest from a closest-first result list.
  void set_range(const std::vector<Neighbor>& out) noexcept {
    nearest = out.empty() ? -1.0f : out.front().distance;
    farthest = out.empty() ? -1.0f : out.back().distance;
  }
};

/// Mutable nearest-neighbour index over fixed-dimension float vectors.
///
/// All implementations return *exact* distances for the candidates they
/// surface; approximation only affects which candidates are considered.
///
/// A query is split in two halves. query_batch_into() is the only query
/// implementation: pure, read-only, all state in the caller's scratch and
/// the returned QueryStats. observe_query_feedback() is the only place an
/// index records per-query instruments or retunes itself; the caller hands
/// the reports back under exclusive access (ApproxCache does so after every
/// lookup, or at fold time on the batched path).
class NnIndex {
 public:
  virtual ~NnIndex() = default;

  /// Adds a vector under `id`. Ids must be unique; re-inserting an existing
  /// id is a precondition violation.
  virtual void insert(VecId id, const FeatureVec& v) = 0;

  /// Removes `id` if present; returns whether it was.
  virtual bool remove(VecId id) = 0;

  /// Creates the per-caller scratch query_batch_into() uses. Returns
  /// nullptr for backends whose query path needs none (the exact scan).
  /// Callers that query one index from many threads hold one scratch per
  /// thread; the scratch must not outlive the index.
  virtual std::unique_ptr<IndexScratch> make_scratch() const {
    return nullptr;
  }

  /// The query: `queries` holds `count` row-major dim()-sized vectors;
  /// fills results[i] with up to `k` nearest stored vectors for query i,
  /// closest first (ties by id), and, when `stats` is non-null, stats[i]
  /// with that query's report. Both spans must hold at least `count`
  /// elements. Backends amortize per-batch work here (the LSH family
  /// hashes table-major, QALSH projects the whole batch first).
  ///
  /// Thread-safety: with a distinct make_scratch() scratch per caller this
  /// is read-only — no metrics, no controller feed, no index-owned buffers
  /// — so any number of threads may run it concurrently, but not against
  /// insert/remove/observe_query_feedback, which need exclusive access.
  /// Steady-state calls perform zero heap allocations.
  virtual void query_batch_into(std::span<const float> queries,
                                std::size_t count, std::size_t k,
                                IndexScratch* scratch,
                                std::span<std::vector<Neighbor>> results,
                                QueryStats* stats = nullptr) const = 0;

  /// Single-query convenience over query_batch_into() and one lazily
  /// created index scratch: clears and fills `out` (its capacity is reused)
  /// and, when `stats` is non-null, the query's report. Records nothing and
  /// feeds nothing; one caller at a time (tests, benches, tools).
  void query_into(std::span<const float> q, std::size_t k,
                  std::vector<Neighbor>& out,
                  QueryStats* stats = nullptr) const {
    if (helper_scratch_ == nullptr) helper_scratch_ = make_scratch();
    query_batch_into(q, 1, k, helper_scratch_.get(), {&out, 1}, stats);
  }

  /// Allocating form of query_into().
  std::vector<Neighbor> query(std::span<const float> q, std::size_t k) const {
    std::vector<Neighbor> out;
    query_into(q, k, out);
    return out;
  }

  /// Takes back the reports of answered queries, under the caller's
  /// exclusive access: `samples` are query_batch_into() reports in query
  /// order (possibly a bounded prefix of what ran), `query_count` how many
  /// queries ran. Instrumented backends record their per-query histograms
  /// and counters here; self-tuning ones (A-LSH width, QALSH start radius)
  /// feed their controller from the farthest returned distances. Default:
  /// nothing to record or tune.
  virtual void observe_query_feedback(std::span<const QueryStats> samples,
                                      std::size_t query_count) {
    (void)samples;
    (void)query_count;
  }

  /// The lossy reconstruction of `id`'s stored vector as the quantized
  /// scan sees it (empty when `id` is absent or the index keeps no codes).
  /// Test/diagnostic seam for code<->float arena coherence.
  virtual FeatureVec reconstructed(VecId id) const {
    (void)id;
    return {};
  }

  /// Registers this index's instruments (candidate-set histograms, rebuild
  /// counters, ...) on `metrics`; recording is zero-alloc afterwards. The
  /// registry must outlive the index. Default: not instrumented.
  virtual void attach_metrics(MetricsRegistry& metrics) { (void)metrics; }

  /// Number of stored vectors.
  virtual std::size_t size() const noexcept = 0;

  /// Vector dimensionality the index was built for.
  virtual std::size_t dim() const noexcept = 0;

 private:
  /// query_into()'s scratch, created on its first call.
  mutable std::unique_ptr<IndexScratch> helper_scratch_;
};

}  // namespace apx
