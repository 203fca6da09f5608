// In-memory point set D: n tuples over d attributes, each attribute
// normalised to (0,1] with larger-is-better semantics (Section III).
#ifndef ISRL_DATA_DATASET_H_
#define ISRL_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/vec.h"

namespace isrl {

/// A dataset of d-dimensional points. Points are stored by value; algorithms
/// reference them by index so questions can be reported as tuple ids.
///
/// A second copy of the points is kept by attribute in blocks of kBlock
/// points (block b holds points [kBlock·b, kBlock·b + kBlock) as dim() rows
/// of kBlock doubles, the tail zero-padded). The constructor and Add() keep
/// it current; it exists only for the top-1 scan (DESIGN.md §12).
class Dataset {
 public:
  /// Points per attribute-major block of the top-1 scan's copy.
  static constexpr size_t kBlock = 16;

  /// Empty dataset over `dim` attributes.
  explicit Dataset(size_t dim) : dim_(dim) {}

  /// Dataset adopting the given points (all must share one dimension).
  explicit Dataset(std::vector<Vec> points);

  /// Appends a point (dimension must match).
  void Add(Vec p);

  size_t size() const { return points_.size(); }
  size_t dim() const { return dim_; }
  bool empty() const { return points_.empty(); }

  const Vec& point(size_t i) const {
    ISRL_CHECK_LT(i, points_.size());
    return points_[i];
  }
  const std::vector<Vec>& points() const { return points_; }

  /// Optional attribute names (empty when unset; size dim() when set).
  const std::vector<std::string>& attribute_names() const { return names_; }
  void set_attribute_names(std::vector<std::string> names);

  /// Index of the point with the highest utility w.r.t. `u` (first on ties).
  /// Dataset must be non-empty. A one-row TopIndices().
  size_t TopIndex(const Vec& u) const;

  /// TopIndex of every utility, in one blocked pass over the points. Each
  /// score is Dot(u, p)'s sum in attribute order, so every index is the
  /// first maximum of a scalar Dot scan. NaN scores never win; when no score
  /// compares (a NaN coordinate in u), the index is 0. Dataset must be
  /// non-empty unless `utilities` is.
  std::vector<size_t> TopIndices(const std::vector<Vec>& utilities) const;

  /// The highest utility max_p f_u(p). Dataset must be non-empty.
  double TopUtility(const Vec& u) const;

  /// Returns a copy min-max normalised per attribute to [floor, 1], where
  /// `floor` > 0 keeps values inside the paper's (0,1] domain. Attributes
  /// flagged false in `higher_is_better` are inverted first (so that after
  /// normalisation a large value is always preferred); an empty flag vector
  /// means all attributes are higher-is-better. Constant attributes map to 1.
  /// NormalizeRows() over a copy of the points; keeps the attribute names.
  Dataset Normalized(const std::vector<bool>& higher_is_better = {},
                     double floor = 1e-3) const;

 private:
  void TopIndicesInto(const Vec* utilities, size_t m, size_t* out) const;
  /// Writes point `index` (the next one) into the blocked copy.
  void AddToBlocks(size_t index, const Vec& p);

  size_t dim_;
  std::vector<Vec> points_;
  /// The attribute-blocked copy (see the class comment), one allocation per
  /// block: a single buffer of the whole copy would be large enough for
  /// malloc to mmap it, and freeing it raises glibc's mmap threshold for
  /// the rest of the process, which retained ~1.4 MB more of the serving
  /// heap on aa-player20.
  std::vector<std::vector<double>> blocks_;
  std::vector<std::string> names_;
};

/// Min-max normalises `rows` (non-empty, one dimension) in place, per
/// attribute, with Dataset::Normalized()'s arithmetic. Generators call it
/// before building their one Dataset, so no raw table is kept alongside.
void NormalizeRows(std::vector<Vec>& rows,
                   const std::vector<bool>& higher_is_better = {},
                   double floor = 1e-3);

}  // namespace isrl

#endif  // ISRL_DATA_DATASET_H_
