#include "common/vec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace isrl {

Vec& Vec::operator+=(const Vec& o) {
  ISRL_CHECK_EQ(dim(), o.dim());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Vec& Vec::operator-=(const Vec& o) {
  ISRL_CHECK_EQ(dim(), o.dim());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Vec& Vec::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Vec& Vec::operator/=(double s) {
  ISRL_CHECK_NE(s, 0.0);
  for (double& v : data_) v /= s;
  return *this;
}

void Vec::Append(const Vec& o) {
  data_.insert(data_.end(), o.data_.begin(), o.data_.end());
}

double Vec::Norm() const { return std::sqrt(NormSquared()); }

double Vec::NormSquared() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Vec::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

size_t Vec::ArgMax() const {
  ISRL_CHECK(!data_.empty());
  return static_cast<size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

std::string Vec::ToString(int precision) const {
  std::string s = "(";
  char buf[64];
  for (size_t i = 0; i < data_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, data_[i]);
    if (i > 0) s += ", ";
    s += buf;
  }
  s += ")";
  return s;
}

Vec operator+(Vec a, const Vec& b) { return a += b; }
Vec operator-(Vec a, const Vec& b) { return a -= b; }
Vec operator*(Vec a, double s) { return a *= s; }
Vec operator/(Vec a, double s) { return a /= s; }

double Dot(const Vec& a, const Vec& b) {
  ISRL_CHECK_EQ(a.dim(), b.dim());
  double s = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) s += a[i] * b[i];
  return s;
}

double Distance(const Vec& a, const Vec& b) {
  ISRL_CHECK_EQ(a.dim(), b.dim());
  double s = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    double diff = a[i] - b[i];
    s += diff * diff;
  }
  return std::sqrt(s);
}

bool ApproxEqual(const Vec& a, const Vec& b, double tol) {
  if (a.dim() != b.dim()) return false;
  for (size_t i = 0; i < a.dim(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

Vec Concat(const Vec& a, const Vec& b) {
  Vec out = a;
  out.Append(b);
  return out;
}

}  // namespace isrl
