#include "tmark/hin/feature_similarity.h"

#include <algorithm>
#include <cmath>

#include "tmark/common/check.h"
#include "tmark/la/microkernel.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/prof.h"
#include "tmark/obs/trace.h"
#include "tmark/parallel/parallel_for.h"

namespace tmark::hin {

FeatureSimilarity FeatureSimilarity::Build(const la::SparseMatrix& features,
                                           SimilarityKernel kernel) {
  TMARK_CHECK_MSG(features.IsNonNegative(),
                  "feature similarity assumes non-negative features");
  obs::TraceSpan span("hin.similarity.build");
  obs::ScopedTimer timer("hin.similarity.build_ms");
  const std::size_t n = features.rows();
  FeatureSimilarity fs;
  fs.kernel_ = kernel;

  // Kernel-specific transform G such that C = G G^T. Only the transforming
  // kernels materialize a copy of the feature matrix; kCosine/kDotProduct
  // read `features` directly (the row-scale below makes the one copy).
  la::SparseMatrix transformed;
  const la::SparseMatrix* source = &features;
  if (kernel == SimilarityKernel::kBinaryCosine) {
    transformed = features;
    for (double& v : transformed.mutable_values()) v = v > 0.0 ? 1.0 : 0.0;
    source = &transformed;
  } else if (kernel == SimilarityKernel::kTfIdfCosine) {
    // idf_j = log(1 + n / df_j) where df_j counts rows containing word j.
    la::Vector df(features.cols(), 0.0);
    for (std::size_t p = 0; p < features.values().size(); ++p) {
      if (features.values()[p] > 0.0) df[features.col_idx()[p]] += 1.0;
    }
    la::Vector idf(features.cols(), 0.0);
    for (std::size_t j = 0; j < features.cols(); ++j) {
      if (df[j] > 0.0) {
        idf[j] = std::log(1.0 + static_cast<double>(n) / df[j]);
      }
    }
    transformed = features.ScaleColumns(idf);
    source = &transformed;
  }

  // Row-L2 normalization (skipped for the raw dot-product kernel).
  la::Vector inv_norm(n, 0.0);
  {
    la::Vector sq(n, 0.0);
    // Disjoint per-row squared norms: row-partitioning is bit-identical.
    parallel::ParallelForRanges(
        n, /*grain=*/2048, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            for (std::size_t p = source->row_ptr()[i];
                 p < source->row_ptr()[i + 1]; ++p) {
              sq[i] += source->values()[p] * source->values()[p];
            }
          }
        });
    for (std::size_t i = 0; i < n; ++i) {
      if (sq[i] > 0.0) {
        inv_norm[i] = kernel == SimilarityKernel::kDotProduct
                          ? 1.0
                          : 1.0 / std::sqrt(sq[i]);
      } else {
        fs.dangling_.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  fs.fhat_ = source->ScaleRows(inv_norm);

  // Column sums of C = F_hat F_hat^T: c = F_hat (F_hat^T 1). F_hat^T 1 is
  // just the column sums of F_hat, computed serially in stored order — no
  // temporary ones-vector and thread-count independent.
  la::Vector t = fs.fhat_.ColumnSums();
  fs.col_sums_ = fs.fhat_.MatVec(t);
  // Numerical floor: nodes with features have c_ii = 1, so col sum >= 1.
  for (std::uint32_t j : fs.dangling_) fs.col_sums_[j] = 0.0;
  if (obs::MetricsEnabled()) {
    obs::IncrCounter("hin.similarity.builds");
    obs::SetGauge("hin.similarity.nnz",
                  static_cast<double>(fs.fhat_.NumNonZeros()));
    obs::SetGauge("hin.similarity.dangling_nodes",
                  static_cast<double>(fs.dangling_.size()));
  }
  if (span.active()) {
    span.AddField("nodes", n);
    span.AddField("nnz", fs.fhat_.NumNonZeros());
  }
  return fs;
}

std::size_t FeatureSimilarity::PatchRows(
    const la::SparseMatrix& features,
    const std::vector<std::uint32_t>& rows) {
  TMARK_CHECK_MSG(features.IsNonNegative(),
                  "feature similarity assumes non-negative features");
  const std::size_t n = num_nodes();
  TMARK_CHECK(features.rows() == n && features.cols() == fhat_.cols());
  if (rows.empty()) return 0;
  if (kernel_ == SimilarityKernel::kTfIdfCosine) {
    *this = Build(features, kernel_);
    return rows.size();
  }
  obs::ScopedTimer timer("hin.similarity.patch_ms");
  std::vector<std::uint32_t> targets(rows);
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  std::vector<la::RowEdit> edits;
  edits.reserve(targets.size());
  for (std::uint32_t i : targets) {
    TMARK_CHECK(i < n);
    const std::size_t begin = features.row_ptr()[i];
    const std::size_t end = features.row_ptr()[i + 1];
    la::RowEdit e;
    e.row = i;
    e.cols.assign(features.col_idx().begin() + begin,
                  features.col_idx().begin() + end);
    e.values.reserve(end - begin);
    // Kernel transform + squared norm, in stored order — Build's per-row
    // computation verbatim.
    double sq = 0.0;
    for (std::size_t p = begin; p < end; ++p) {
      double v = features.values()[p];
      if (kernel_ == SimilarityKernel::kBinaryCosine) v = v > 0.0 ? 1.0 : 0.0;
      sq += v * v;
      e.values.push_back(v);
    }
    double inv = 0.0;
    if (sq > 0.0) {
      inv = kernel_ == SimilarityKernel::kDotProduct ? 1.0
                                                     : 1.0 / std::sqrt(sq);
    }
    for (double& v : e.values) v *= inv;
    const bool now_dangling = !(sq > 0.0);
    const auto it = std::lower_bound(dangling_.begin(), dangling_.end(), i);
    const bool was_dangling = it != dangling_.end() && *it == i;
    if (now_dangling && !was_dangling) {
      dangling_.insert(it, i);
    } else if (!now_dangling && was_dangling) {
      dangling_.erase(it);
    }
    edits.push_back(std::move(e));
  }
  fhat_.ApplyRowEdits(std::move(edits));
  // The column sums couple all rows through F_hat^T 1, so they recompute
  // wholesale — one O(nnz F) pass over the patched F_hat, which matches a
  // rebuilt operator bit for bit because F_hat itself does.
  la::Vector t = fhat_.ColumnSums();
  col_sums_ = fhat_.MatVec(t);
  for (std::uint32_t j : dangling_) col_sums_[j] = 0.0;
  if (obs::MetricsEnabled()) {
    obs::SetGauge("hin.similarity.nnz",
                  static_cast<double>(fhat_.NumNonZeros()));
    obs::SetGauge("hin.similarity.dangling_nodes",
                  static_cast<double>(dangling_.size()));
  }
  return targets.size();
}

void FeatureSimilarity::ApplyPanel(const la::DenseMatrix& x,
                                   std::size_t width, la::DenseMatrix* y,
                                   la::PanelWorkspace* ws) const {
  TMARK_PROF_REGION("hin.similarity.apply_panel");
  const std::size_t n = num_nodes();
  TMARK_CHECK(y != nullptr && ws != nullptr);
  TMARK_CHECK(x.rows() == n && y->rows() == n);
  TMARK_CHECK(x.cols() == y->cols() && width <= x.cols());
  const std::size_t stride = x.cols();
  // Three steps on panels: u = x ./ colsums (0 on dangling columns),
  // t = F_hat^T u, y = F_hat t, then the uniform spread of the mass on
  // dangling nodes.
  la::DenseMatrix& u = ws->Panel(0, n, stride);
  for (std::size_t j = 0; j < n; ++j) {
    const double* xrow = x.RowPtr(j);
    double* urow = u.RowPtr(j);
    if (col_sums_[j] > 0.0) {
      la::mk::DivScalar(urow, xrow, col_sums_[j], width);
    } else {
      la::mk::Zero(urow, width);
    }
  }
  la::DenseMatrix& t = ws->Panel(1, fhat_.cols(), stride);
  fhat_.TransposeMatMulPanel(u, width, &t, ws);
  fhat_.MatMulPanel(t, width, y);
  la::Vector& mass = ws->Buffer(0, width);
  for (std::uint32_t j : dangling_) {
    la::mk::Add(mass.data(), x.RowPtr(j), width);
  }
  // A zero-mass column receives + 0.0 either way; the skip only saves the
  // sweep when no column has dangling mass.
  if (!la::mk::AnyNonZero(mass.data(), width)) return;
  for (std::size_t c = 0; c < width; ++c) {
    mass[c] /= static_cast<double>(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    la::mk::Add(y->RowPtr(i), mass.data(), width);
  }
}

la::DenseMatrix FeatureSimilarity::Dense() const {
  const std::size_t n = num_nodes();
  la::DenseMatrix w(n, n);
  la::PanelWorkspace ws;
  ApplyPanel(la::DenseMatrix::Identity(n), n, &w, &ws);
  return w;
}

double FeatureSimilarity::Cosine(std::size_t i, std::size_t j) const {
  const std::size_t n = num_nodes();
  TMARK_CHECK(i < n && j < n);
  // Dot product of the two normalized rows (both sorted by column index).
  double s = 0.0;
  std::size_t pi = fhat_.row_ptr()[i];
  std::size_t pj = fhat_.row_ptr()[j];
  const std::size_t ei = fhat_.row_ptr()[i + 1];
  const std::size_t ej = fhat_.row_ptr()[j + 1];
  while (pi < ei && pj < ej) {
    const std::uint32_t ci = fhat_.col_idx()[pi];
    const std::uint32_t cj = fhat_.col_idx()[pj];
    if (ci == cj) {
      s += fhat_.values()[pi] * fhat_.values()[pj];
      ++pi;
      ++pj;
    } else if (ci < cj) {
      ++pi;
    } else {
      ++pj;
    }
  }
  return s;
}

}  // namespace tmark::hin
