// Dense row-major matrix with the linear algebra the substrates need:
// matrix-vector products and batched GEMM kernels for the NN, Gaussian
// elimination for vertex enumeration (solving the d×d systems of tight
// constraints).
#ifndef ISRL_COMMON_MATRIX_H_
#define ISRL_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/vec.h"

namespace isrl {

/// Dense row-major real matrix.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// Zero matrix of shape rows×cols.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// Adopts an already-filled row-major buffer (must hold rows·cols
  /// values). Lets hot paths assemble a matrix without the zero-fill the
  /// sized constructor would immediately overwrite.
  Matrix(size_t rows, size_t cols, std::vector<double>&& flat)
      : rows_(rows), cols_(cols), data_(std::move(flat)) {
    ISRL_DCHECK_EQ(data_.size(), rows_ * cols_);
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  // Debug-only bounds checks: element access sits inside every elimination
  // and matrix-vector inner loop (see the rationale at Vec::operator[]).
  double operator()(size_t r, size_t c) const {
    ISRL_DCHECK_LT(r, rows_);
    ISRL_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) {
    ISRL_DCHECK_LT(r, rows_);
    ISRL_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  const double* row(size_t r) const { return &data_[r * cols_]; }
  double* row(size_t r) { return &data_[r * cols_]; }
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Row `r` as a Vec (copy).
  Vec RowVec(size_t r) const;

  /// Stacks equal-dimension vectors into a rows.size() × dim matrix (the
  /// batched-NN input layout: one sample per row).
  static Matrix FromRows(const std::vector<Vec>& rows);

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// C = A·Bᵀ (+ optional bias broadcast over rows of C), the batched-NN
/// forward kernel: A is m×k row-major (one sample per row), B is n×k
/// row-major (the natural layout of Linear weights, one output neuron per
/// row), C is m×n row-major. `bias` is length n or nullptr.
///
/// The kernel is cache-blocked over m×n output tiles so each tile reuses
/// its A rows and B rows while they are L1-resident, with a 4-wide register
/// tile over B rows inside the block. The k-accumulation of every output
/// element stays a single sequential sum, so C(i,j) is bit-identical to the
/// scalar dot product `bias[j] + Σ_t a(i,t)·b(j,t)` — the batched and
/// per-sample NN paths agree exactly, not just to rounding (DESIGN.md §12).
///
/// With `accumulate` set, each output element starts from its existing value
/// instead of the bias (`bias` must then be nullptr): C(i,j) becomes
/// `((C(i,j) + a(i,0)·b(j,0)) + a(i,1)·b(j,1)) + …`, the exact order a
/// sample-at-a-time gradient accumulation produces. This is the batched
/// backward's weight-gradient kernel (reduction axis = samples).
void GemmTransposedB(size_t m, size_t n, size_t k, const double* a,
                     const double* b, const double* bias, double* c,
                     bool accumulate = false);

/// Solves the square system A x = b by Gaussian elimination with partial
/// pivoting. Returns false when A is singular up to `pivot_tol` (contents of
/// `x` are then unspecified).
bool SolveLinearSystem(Matrix a, Vec b, Vec* x, double pivot_tol = 1e-10);

}  // namespace isrl

#endif  // ISRL_COMMON_MATRIX_H_
