#include "tmark/core/prepared_operators.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "tmark/hin/hin_delta.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"

namespace tmark::core {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(const void* data, std::size_t len, std::uint64_t* h) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t x = *h;
  for (std::size_t i = 0; i < len; ++i) {
    x ^= bytes[i];
    x *= kFnvPrime;
  }
  *h = x;
}

void HashValue(std::uint64_t value, std::uint64_t* h) {
  HashBytes(&value, sizeof(value), h);
}

void HashMatrix(const la::SparseMatrix& m, std::uint64_t* h) {
  HashValue(m.rows(), h);
  HashValue(m.cols(), h);
  HashValue(m.NumNonZeros(), h);
  // Hash row offsets as canonical 64-bit values so the fingerprint does not
  // depend on the adaptive storage width the IndexArray happened to pick
  // (compact and wide builds of the same structure must hit the same cache
  // entry).
  for (std::size_t i = 0; i < m.row_ptr().size(); ++i) {
    HashValue(m.row_ptr()[i], h);
  }
  HashBytes(m.col_idx().data(), m.col_idx().size() * sizeof(std::uint32_t), h);
  HashBytes(m.values().data(), m.values().size() * sizeof(double), h);
}

}  // namespace

std::uint64_t FingerprintOperators(const hin::Hin& hin,
                                   hin::SimilarityKernel kernel) {
  std::uint64_t h = kFnvOffset;
  HashValue(hin.num_nodes(), &h);
  HashValue(hin.num_relations(), &h);
  HashValue(static_cast<std::uint64_t>(kernel), &h);
  for (std::size_t k = 0; k < hin.num_relations(); ++k) {
    HashMatrix(hin.relation(k), &h);
  }
  HashMatrix(hin.features(), &h);
  return h;
}

PreparedOperators PreparedOperators::Build(const hin::Hin& hin,
                                           hin::SimilarityKernel kernel) {
  // No span of its own: the tensor / similarity build spans attach directly
  // to whatever span is open at the call site (e.g. tmark.fit).
  const std::uint64_t fingerprint = FingerprintOperators(hin, kernel);
  tensor::TransitionTensors tensors =
      tensor::TransitionTensors::Build(hin.relations());
  hin::FeatureSimilarity similarity =
      hin::FeatureSimilarity::Build(hin.features(), kernel);
  obs::IncrCounter("core.prepared.builds");
  return PreparedOperators(std::move(tensors), std::move(similarity),
                           fingerprint, hin.num_nodes(), hin.num_relations(),
                           kernel);
}

std::shared_ptr<const PreparedOperators> PreparedOperators::BuildShared(
    const hin::Hin& hin, hin::SimilarityKernel kernel) {
  // The managed object is non-const so a uniquely-held bundle can be
  // patched in place through const_pointer_cast (TMarkClassifier::Update);
  // every handle handed out is still pointer-to-const.
  return std::make_shared<PreparedOperators>(Build(hin, kernel));
}

void PreparedOperators::ApplyDelta(const hin::Hin& hin,
                                   const hin::HinDelta& delta) {
  obs::ScopedTimer timer("update.operators_ms");
  obs::IncrCounter("update.edges",
                   static_cast<std::int64_t>(delta.edge_ops().size()));
  if (!delta.edge_ops().empty()) {
    tensor::TransitionTensors::AdjacencyDelta adelta;
    adelta.relations.reserve(delta.edge_ops().size());
    adelta.pairs.reserve(delta.edge_ops().size());
    for (const hin::EdgeOp& op : delta.edge_ops()) {
      adelta.relations.push_back(op.relation);
      adelta.pairs.emplace_back(static_cast<std::uint32_t>(op.dst),
                                static_cast<std::uint32_t>(op.src));
    }
    std::sort(adelta.relations.begin(), adelta.relations.end());
    adelta.relations.erase(
        std::unique(adelta.relations.begin(), adelta.relations.end()),
        adelta.relations.end());
    std::sort(adelta.pairs.begin(), adelta.pairs.end());
    adelta.pairs.erase(std::unique(adelta.pairs.begin(), adelta.pairs.end()),
                       adelta.pairs.end());
    tensors_.ApplyPatch(hin.relations(), adelta);
  }
  if (!delta.feature_updates().empty()) {
    std::vector<std::uint32_t> rows;
    rows.reserve(delta.feature_updates().size());
    for (const hin::FeatureRowUpdate& u : delta.feature_updates()) {
      rows.push_back(static_cast<std::uint32_t>(u.node));
    }
    similarity_.PatchRows(hin.features(), rows);
  }
  fingerprint_ = FingerprintOperators(hin, kernel_);
}

OperatorCache::OperatorCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const PreparedOperators> OperatorCache::GetOrBuild(
    const hin::Hin& hin, hin::SimilarityKernel kernel) {
  const std::uint64_t fingerprint = FingerprintOperators(hin, kernel);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [fingerprint](const std::shared_ptr<const PreparedOperators>& e) {
          return e->fingerprint() == fingerprint;
        });
    if (it != entries_.end()) {
      std::shared_ptr<const PreparedOperators> hit = *it;
      entries_.erase(it);
      entries_.insert(entries_.begin(), hit);  // refresh MRU position
      obs::IncrCounter("core.prepared.cache_hits");
      obs::IncrCounter("ops.cache.hit");
      return hit;
    }
  }
  // Build outside the lock: concurrent misses may build twice, but both
  // results are identical and the cache stays consistent.
  obs::IncrCounter("ops.cache.miss");
  std::shared_ptr<const PreparedOperators> built =
      PreparedOperators::BuildShared(hin, kernel);
  std::lock_guard<std::mutex> lock(mu_);
  entries_.insert(entries_.begin(), built);
  if (entries_.size() > capacity_) entries_.resize(capacity_);
  return built;
}

std::size_t OperatorCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace tmark::core
