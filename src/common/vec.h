// Dense d-dimensional vector used throughout (points, utility vectors,
// network activations). Thin wrapper over std::vector<double> with the
// numeric operations the algorithms need.
#ifndef ISRL_COMMON_VEC_H_
#define ISRL_COMMON_VEC_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace isrl {

/// Dense real vector.
class Vec {
 public:
  Vec() = default;
  /// Zero vector of dimension `dim`.
  explicit Vec(size_t dim) : data_(dim, 0.0) {}
  /// Constant vector of dimension `dim` filled with `value`.
  Vec(size_t dim, double value) : data_(dim, value) {}
  Vec(std::initializer_list<double> init) : data_(init) {}
  explicit Vec(std::vector<double> data) : data_(std::move(data)) {}

  size_t dim() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Element access is the innermost hot path of every numeric loop, so the
  // bounds check is debug-only (ISRL_DCHECK); whole-operation contracts
  // (dimension agreement in Dot, +=, ...) stay always-on in vec.cc, and the
  // audit layer (DESIGN.md §11) guards the release-mode structures.
  double operator[](size_t i) const {
    ISRL_DCHECK_LT(i, data_.size());
    return data_[i];
  }
  double& operator[](size_t i) {
    ISRL_DCHECK_LT(i, data_.size());
    return data_[i];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }
  const double* raw() const { return data_.data(); }
  double* raw() { return data_.data(); }

  Vec& operator+=(const Vec& o);
  Vec& operator-=(const Vec& o);
  Vec& operator*=(double s);
  Vec& operator/=(double s);

  /// Appends all entries of `o` (used to concatenate state features).
  void Append(const Vec& o);
  /// Appends a single scalar.
  void PushBack(double v) { data_.push_back(v); }

  /// Euclidean norm.
  double Norm() const;
  /// Squared Euclidean norm.
  double NormSquared() const;
  /// Sum of entries.
  double Sum() const;
  /// Index of the largest entry (first on ties; vector must be non-empty).
  size_t ArgMax() const;

  /// "(v0, v1, ...)" with `precision` significant digits.
  std::string ToString(int precision = 6) const;

  bool operator==(const Vec& o) const { return data_ == o.data_; }

 private:
  std::vector<double> data_;
};

Vec operator+(Vec a, const Vec& b);
Vec operator-(Vec a, const Vec& b);
Vec operator*(Vec a, double s);
Vec operator/(Vec a, double s);

/// Inner product a·b; dimensions must match.
double Dot(const Vec& a, const Vec& b);
/// Euclidean distance ‖a−b‖.
double Distance(const Vec& a, const Vec& b);
/// True when ‖a−b‖∞ ≤ tol.
bool ApproxEqual(const Vec& a, const Vec& b, double tol = 1e-9);

}  // namespace isrl

#endif  // ISRL_COMMON_VEC_H_
