#include "common/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace isrl {

Vec Matrix::RowVec(size_t r) const {
  ISRL_CHECK_LT(r, rows_);
  const double* src = row(r);
  return Vec(std::vector<double>(src, src + cols_));
}

Matrix Matrix::FromRows(const std::vector<Vec>& rows) {
  if (rows.empty()) return Matrix();
  const size_t dim = rows[0].dim();
  Matrix m(rows.size(), dim);
  for (size_t r = 0; r < rows.size(); ++r) {
    ISRL_CHECK_EQ(rows[r].dim(), dim);
    const double* src = rows[r].raw();
    std::copy(src, src + dim, m.row(r));
  }
  return m;
}

namespace {
// Batches below this row count take the dot-product path: packing B is not
// worth a k·n transpose for a handful of rows, and the m = 1 case (scalar
// Layer::Forward) must stay allocation-free.
constexpr size_t kPackMinRows = 8;
// Register tile of the packed path: 16 output columns = four 4-wide vector
// accumulators that live in registers across the whole t-loop, so the C row
// is stored exactly once instead of load/store-cycled per t.
constexpr size_t kRegTileN = 16;
}  // namespace

// The packed micro-kernel's lanes (common/simd.h): the autovectoriser does
// not reliably keep the 16-column accumulator tile in registers, so the
// lanes are spelled out.
using simd::LoadV4;
using simd::SplatV4;
using simd::StoreV4;
using simd::V4;

ISRL_SIMD_TARGET_CLONES
void GemmTransposedB(size_t m, size_t n, size_t k, const double* a,
                     const double* b, const double* bias, double* c,
                     bool accumulate) {
  if (n < 4 && m >= 4) {
    // Narrow-output path (the scalar Q-head is n = 1): one dot product per
    // row is a single latency-bound accumulator chain, so run four rows'
    // chains in parallel instead of four columns'. Each element's k-sum is
    // still sequential. (An 8-row variant measured no faster — the path is
    // load-port-bound, and bit-exactness rules out splitting a row's chain.)
    for (size_t j = 0; j < n; ++j) {
      const double* bj = b + j * k;
      const double init = bias != nullptr ? bias[j] : 0.0;
      size_t i = 0;
      for (; i + 4 <= m; i += 4) {
        const double* a0 = a + i * k;
        const double* a1 = a0 + k;
        const double* a2 = a1 + k;
        const double* a3 = a2 + k;
        double s0 = accumulate ? c[(i + 0) * n + j] : init;
        double s1 = accumulate ? c[(i + 1) * n + j] : init;
        double s2 = accumulate ? c[(i + 2) * n + j] : init;
        double s3 = accumulate ? c[(i + 3) * n + j] : init;
        for (size_t t = 0; t < k; ++t) {
          const double bv = bj[t];
          s0 += a0[t] * bv;
          s1 += a1[t] * bv;
          s2 += a2[t] * bv;
          s3 += a3[t] * bv;
        }
        c[(i + 0) * n + j] = s0;
        c[(i + 1) * n + j] = s1;
        c[(i + 2) * n + j] = s2;
        c[(i + 3) * n + j] = s3;
      }
      for (; i < m; ++i) {
        const double* ai = a + i * k;
        double s = accumulate ? c[i * n + j] : init;
        for (size_t t = 0; t < k; ++t) s += ai[t] * bj[t];
        c[i * n + j] = s;
      }
    }
    return;
  }
  if (m < kPackMinRows) {
    // Dot-product path: each output element is one A-row·B-row dot product.
    // A 4-wide register tile over B rows keeps four independent accumulator
    // chains in flight; the t-loop of every element runs sequentially.
    for (size_t i = 0; i < m; ++i) {
      const double* ai = a + i * k;
      double* ci = c + i * n;
      size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const double* b0 = b + j * k;
        const double* b1 = b0 + k;
        const double* b2 = b1 + k;
        const double* b3 = b2 + k;
        double s0 = accumulate ? ci[j] : (bias != nullptr ? bias[j] : 0.0);
        double s1 =
            accumulate ? ci[j + 1] : (bias != nullptr ? bias[j + 1] : 0.0);
        double s2 =
            accumulate ? ci[j + 2] : (bias != nullptr ? bias[j + 2] : 0.0);
        double s3 =
            accumulate ? ci[j + 3] : (bias != nullptr ? bias[j + 3] : 0.0);
        for (size_t t = 0; t < k; ++t) {
          const double av = ai[t];
          s0 += av * b0[t];
          s1 += av * b1[t];
          s2 += av * b2[t];
          s3 += av * b3[t];
        }
        ci[j] = s0;
        ci[j + 1] = s1;
        ci[j + 2] = s2;
        ci[j + 3] = s3;
      }
      for (; j < n; ++j) {
        const double* bj = b + j * k;
        double s = accumulate ? ci[j] : (bias != nullptr ? bias[j] : 0.0);
        for (size_t t = 0; t < k; ++t) s += ai[t] * bj[t];
        ci[j] = s;
      }
    }
    return;
  }

  // Packed path: transpose B once into a k×n panel so the micro-kernel
  // broadcasts one A element against contiguous output columns. Unlike the
  // dot-product reduction (a sequential dependence chain the compiler must
  // not reorder), the accumulator lanes are element-wise independent and
  // vectorise. Each output element still receives its k terms in index
  // order — the packed and dot paths are bit-identical, which the
  // batched/scalar equivalence tests rely on (DESIGN.md §12). The panel
  // (k·n doubles) is assumed cache-resident, which holds for the layer
  // sizes this repo runs (k, n ≤ a few hundred).
  std::vector<double> packed(k * n);
  for (size_t j = 0; j < n; ++j) {
    const double* bj = b + j * k;
    for (size_t t = 0; t < k; ++t) packed[t * n + j] = bj[t];
  }
  const double* panel = packed.data();
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * k;
    double* ci = c + i * n;
    size_t j = 0;
    for (; j + kRegTileN <= n; j += kRegTileN) {
      V4 acc0 = accumulate ? LoadV4(ci + j)
                           : (bias != nullptr ? LoadV4(bias + j) : SplatV4(0.0));
      V4 acc1 = accumulate
                    ? LoadV4(ci + j + 4)
                    : (bias != nullptr ? LoadV4(bias + j + 4) : SplatV4(0.0));
      V4 acc2 = accumulate
                    ? LoadV4(ci + j + 8)
                    : (bias != nullptr ? LoadV4(bias + j + 8) : SplatV4(0.0));
      V4 acc3 = accumulate
                    ? LoadV4(ci + j + 12)
                    : (bias != nullptr ? LoadV4(bias + j + 12) : SplatV4(0.0));
      const double* pj = panel + j;
      for (size_t t = 0; t < k; ++t) {
        const V4 av = SplatV4(ai[t]);
        const double* p = pj + t * n;
        acc0 += av * LoadV4(p);
        acc1 += av * LoadV4(p + 4);
        acc2 += av * LoadV4(p + 8);
        acc3 += av * LoadV4(p + 12);
      }
      StoreV4(ci + j, acc0);
      StoreV4(ci + j + 4, acc1);
      StoreV4(ci + j + 8, acc2);
      StoreV4(ci + j + 12, acc3);
    }
    for (; j + 4 <= n; j += 4) {
      V4 acc = accumulate ? LoadV4(ci + j)
                          : (bias != nullptr ? LoadV4(bias + j) : SplatV4(0.0));
      const double* pj = panel + j;
      for (size_t t = 0; t < k; ++t) {
        acc += SplatV4(ai[t]) * LoadV4(pj + t * n);
      }
      StoreV4(ci + j, acc);
    }
    for (; j < n; ++j) {
      double s = accumulate ? ci[j] : (bias != nullptr ? bias[j] : 0.0);
      for (size_t t = 0; t < k; ++t) s += ai[t] * panel[t * n + j];
      ci[j] = s;
    }
  }
}

bool SolveLinearSystem(Matrix a, Vec b, Vec* x, double pivot_tol) {
  const size_t n = a.rows();
  ISRL_CHECK_EQ(a.cols(), n);
  ISRL_CHECK_EQ(b.dim(), n);
  ISRL_CHECK(x != nullptr);

  // Forward elimination with partial pivoting.
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    double best = std::abs(a(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      double v = std::abs(a(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best <= pivot_tol) return false;
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(col, c));
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      double factor = a(r, col) * inv;
      if (factor == 0.0) continue;  // float-eq-ok: exact-zero skip-work
      for (size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }

  // Back substitution.
  Vec sol(n);
  for (size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (size_t c = ri + 1; c < n; ++c) s -= a(ri, c) * sol[c];
    sol[ri] = s / a(ri, ri);
  }
  *x = sol;
  return true;
}

}  // namespace isrl
