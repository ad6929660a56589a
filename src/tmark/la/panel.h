#ifndef TMARK_LA_PANEL_H_
#define TMARK_LA_PANEL_H_

// Multi-RHS "panel" support for the fixed-point engine
// (core/panel_fixed_point.h).
//
// A panel is a row-major DenseMatrix whose leading `width` columns are
// active: column c holds the vector of one independent chain, and the
// panel kernels (SparseMatrix::MatMulPanel, EntryIndex::
// ContractMode1Panel, ...) stream the sparse structure once while updating
// all active columns with a contiguous inner loop. A single vector is a
// width-1 panel. Every panel kernel performs, per column, the same
// floating-point operations in the same order whatever the width, the
// column stride or the other columns' values, so a column computed in a
// width-q panel is bit-identical to the same column run alone at width 1
// (docs/PERFORMANCE.md). The inner column runs are executed by the
// register-blocked SIMD micro-kernels of la/microkernel.h; blocking across
// columns never mixes columns, so the guarantee survives vectorization.
//
// PanelWorkspace owns the reusable scratch buffers (per-chunk partials for
// the scatter/reduction kernels, small per-call accumulators) so a fit
// allocates them once, not once per iteration. A workspace serves one
// kernel invocation at a time: kernels prepare it on the calling thread and
// chunk workers touch disjoint buffers.

#include <cstddef>
#include <deque>
#include <vector>

#include "tmark/la/dense_matrix.h"
#include "tmark/la/vector_ops.h"

namespace tmark::la {

/// Reusable scratch storage for the panel kernels. Buffers grow on demand
/// and keep their capacity across invocations, so steady-state iterations
/// allocate nothing.
class PanelWorkspace {
 public:
  /// Zeroes and returns `count` buffers of `size` doubles each, one per
  /// chunk of a parallel kernel. Call on the coordinating thread before the
  /// parallel region; workers then use Chunk(i) exclusively.
  void PrepareChunks(std::size_t count, std::size_t size);

  /// Chunk buffer `i` of the last PrepareChunks call.
  Vector& Chunk(std::size_t i) { return chunks_[i]; }

  /// Zeroed small per-call accumulator (column sums, dangling masses, ...).
  /// Slots are scoped to a single kernel invocation; different slots may be
  /// alive at the same time within one call (deque storage keeps earlier
  /// references valid while later slots are fetched).
  Vector& Buffer(std::size_t slot, std::size_t size);

  /// Dense scratch panel `slot`, reallocated only when the shape changes.
  /// Contents are unspecified; kernels overwrite their active region.
  DenseMatrix& Panel(std::size_t slot, std::size_t rows, std::size_t cols);

 private:
  std::vector<Vector> chunks_;
  std::deque<Vector> buffers_;
  std::deque<DenseMatrix> panels_;
};

// Column-wise helpers on the leading `width` columns of a panel. Each one
// matches the per-vector op in vector_ops.h per column (same element order).

/// panel(:, c) *= alpha for c in [0, width).
void ScaleLeadingColumns(double alpha, std::size_t width, DenseMatrix* panel);

/// y(:, c) += alpha * x(:, c) for c in [0, width).
void AxpyLeadingColumns(double alpha, const DenseMatrix& x, std::size_t width,
                        DenseMatrix* y);

/// L1-normalizes each leading column in place; requires a positive column
/// sum (the probability-simplex projection of la::NormalizeL1).
void NormalizeLeadingColumnsL1(std::size_t width, DenseMatrix* panel);

/// out[c] = ||a(:, c) - b(:, c)||_1 for c in [0, width).
void LeadingColumnL1Distances(const DenseMatrix& a, const DenseMatrix& b,
                              std::size_t width, Vector* out);

/// out[c] = sum_i panel(i, c) for c in [0, width); matches la::Sum's
/// left-to-right accumulation per column.
void LeadingColumnSums(const DenseMatrix& panel, std::size_t width,
                       Vector* out);

/// panel(:, col) = v.
void SetColumn(const Vector& v, std::size_t col, DenseMatrix* panel);

/// out = panel(:, col), reusing out's storage.
void ExtractColumn(const DenseMatrix& panel, std::size_t col, Vector* out);

/// panel(:, to) = panel(:, from) (the active-column compaction move).
void MoveColumn(std::size_t from, std::size_t to, DenseMatrix* panel);

// Fused per-iteration passes of the fixed-point engine. Each replaces a
// sequence of the single-purpose sweeps above with one traversal of the
// panels, performing per column exactly the same floating-point operations
// in the same order — so fused results are bit-identical to the unfused
// sequence.

/// The fused x-combine pass:
///
///   x(i, c) = rel * x(i, c) + beta * wx(i, c) + alpha * l(i, c)
///   sums[c] = sum_i x(i, c)   (accumulated in ascending row order)
///
/// for c in [0, width), in ONE traversal — replacing ScaleLeadingColumns +
/// two AxpyLeadingColumns + the LeadingColumnSums pass of the subsequent L1
/// normalization (four sweeps -> one). Per element the operation sequence
/// is scale, +beta*wx, +alpha*l, then the sum accumulation: exactly the
/// unfused order. `sums` is assigned (size width).
void FusedCombineColumns(double rel, double beta, const DenseMatrix& wx,
                         double alpha, const DenseMatrix& l, std::size_t width,
                         DenseMatrix* x, Vector* sums);

/// The fused normalize + residual pass:
///
///   panel(i, c) /= sums[c]        (as multiplication by the reciprocal,
///                                  exactly NormalizeLeadingColumnsL1)
///   out[c] = ||panel(:, c) - prev(:, c)||_1   (over normalized values)
///
/// in ONE traversal — replacing the NormalizeLeadingColumnsL1 apply sweep +
/// LeadingColumnL1Distances (two sweeps -> one). Requires sums[c] > 0 for
/// every leading column. `sums` is consumed: it is overwritten with the
/// reciprocals. `out` is assigned (size width).
void FusedNormalizeDistanceColumns(Vector* sums, const DenseMatrix& prev,
                                   std::size_t width, DenseMatrix* panel,
                                   Vector* out);

}  // namespace tmark::la

#endif  // TMARK_LA_PANEL_H_
