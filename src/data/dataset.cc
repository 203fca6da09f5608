#include "data/dataset.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/simd.h"

namespace isrl {
namespace {

using simd::I4;
using simd::LoadV4;
using simd::SplatV4;
using simd::StoreV4;
using simd::V4;

constexpr size_t kBlock = Dataset::kBlock;
static_assert(kBlock == 16, "the scan keeps four V4 lanes per block");
// Utilities scored against each block while it is L1-resident; their lane
// state (4 + 4 vectors each) lives on the stack.
constexpr size_t kGroup = 8;

// Lane j of a V4 keeps the best score its points have reached and the block
// it came from. Strict `>` keeps the first block on ties and never takes a
// NaN; `live` masks the zero padding of the last block.
[[gnu::always_inline]] inline void KeepBest(const V4& score, const I4& live,
                                            const I4& block, V4* best,
                                            I4* at) {
  const I4 take = reinterpret_cast<I4>(score > *best) & live;
  *best = reinterpret_cast<V4>((take & reinterpret_cast<I4>(score)) |
                               (~take & reinterpret_cast<I4>(*best)));
  *at = (take & block) | (~take & *at);
}

// Scores U utilities against one block and keeps each lane's best.
template <size_t U>
[[gnu::always_inline]] inline void ScoreBlock(const double* block, size_t d,
                                              const Vec* utilities,
                                              const I4 live[4],
                                              const I4& block_tag,
                                              V4 (*best)[4], I4 (*at)[4]) {
  V4 score[U][4] = {};
  for (size_t k = 0; k < d; ++k) {
    const double* row = block + k * kBlock;
    const V4 r[4] = {LoadV4(row), LoadV4(row + 4), LoadV4(row + 8),
                     LoadV4(row + 12)};
    for (size_t j = 0; j < U; ++j) {
      const V4 uk = SplatV4(utilities[j][k]);
      for (size_t q = 0; q < 4; ++q) score[j][q] += uk * r[q];
    }
  }
  for (size_t j = 0; j < U; ++j) {
    for (size_t q = 0; q < 4; ++q) {
      KeepBest(score[j][q], live[q], block_tag, &best[j][q], &at[j][q]);
    }
  }
}

// The top-1 kernel behind Dataset::TopIndices over the attribute-blocked
// copy: `blocks` holds ceil(n / kBlock) blocks of d rows × kBlock doubles.
// Every score is one k-ordered chain of separate multiplies and adds from
// 0.0, exactly Dot's, so each lane's winner is its first maximum; lanes are
// merged by highest score, ties to the lowest point index — together the
// first maximum of the scalar scan.
ISRL_SIMD_TARGET_CLONES
void TopIndicesKernel(const std::vector<double>* blocks, size_t n, size_t d,
                      const Vec* utilities, size_t m, size_t* out) {
  const size_t num_blocks = (n + kBlock - 1) / kBlock;
  const I4 lane[4] = {I4{0, 1, 2, 3}, I4{4, 5, 6, 7}, I4{8, 9, 10, 11},
                      I4{12, 13, 14, 15}};
  for (size_t g = 0; g < m; g += kGroup) {
    const size_t group = std::min(kGroup, m - g);
    V4 best[kGroup][4] = {};
    I4 at[kGroup][4] = {};
    for (size_t i = 0; i < group; ++i) {
      for (size_t q = 0; q < 4; ++q) {
        best[i][q] = SplatV4(-std::numeric_limits<double>::infinity());
      }
    }
    for (size_t b = 0; b < num_blocks; ++b) {
      const double* block = blocks[b].data();
      const auto left = static_cast<int64_t>(n - b * kBlock);
      const I4 limit = I4{left, left, left, left};
      const I4 live[4] = {lane[0] < limit, lane[1] < limit, lane[2] < limit,
                          lane[3] < limit};
      const auto tag = static_cast<int64_t>(b);
      const I4 block_tag = I4{tag, tag, tag, tag};
      // Two utilities per pass share the block's loads and keep eight
      // independent add chains in flight.
      size_t i = 0;
      for (; i + 2 <= group; i += 2) {
        ScoreBlock<2>(block, d, utilities + g + i, live, block_tag, best + i,
                      at + i);
      }
      if (i < group) {
        ScoreBlock<1>(block, d, utilities + g + i, live, block_tag, best + i,
                      at + i);
      }
    }
    for (size_t i = 0; i < group; ++i) {
      double value[kBlock];
      int64_t from[kBlock];
      for (size_t q = 0; q < 4; ++q) {
        StoreV4(value + 4 * q, best[i][q]);
        __builtin_memcpy(from + 4 * q, &at[i][q], sizeof(I4));
      }
      // A lane that never took a score holds -inf from block 0; it can only
      // win when no score compares, and then lane 0 (point 0) does.
      size_t top = static_cast<size_t>(from[0]) * kBlock;
      double top_value = value[0];
      for (size_t j = 1; j < kBlock; ++j) {
        const size_t index = static_cast<size_t>(from[j]) * kBlock + j;
        if (value[j] > top_value || (value[j] == top_value && index < top)) {
          top = index;
          top_value = value[j];
        }
      }
      out[g + i] = top;
    }
  }
}

}  // namespace

Dataset::Dataset(std::vector<Vec> points) : dim_(0), points_(std::move(points)) {
  ISRL_CHECK(!points_.empty());
  dim_ = points_[0].dim();
  blocks_.reserve((points_.size() + kBlock - 1) / kBlock);
  for (size_t i = 0; i < points_.size(); ++i) {
    ISRL_CHECK_EQ(points_[i].dim(), dim_);
    AddToBlocks(i, points_[i]);
  }
}

void Dataset::Add(Vec p) {
  ISRL_CHECK_EQ(p.dim(), dim_);
  AddToBlocks(points_.size(), p);
  points_.push_back(std::move(p));
}

void Dataset::AddToBlocks(size_t index, const Vec& p) {
  const size_t lane = index % kBlock;
  if (lane == 0) blocks_.emplace_back(dim_ * kBlock, 0.0);
  double* block = blocks_.back().data();
  for (size_t k = 0; k < dim_; ++k) block[k * kBlock + lane] = p[k];
}

void Dataset::set_attribute_names(std::vector<std::string> names) {
  ISRL_CHECK_EQ(names.size(), dim_);
  names_ = std::move(names);
}

void Dataset::TopIndicesInto(const Vec* utilities, size_t m,
                             size_t* out) const {
  if (m == 0) return;
  ISRL_CHECK(!points_.empty());
  for (size_t i = 0; i < m; ++i) ISRL_CHECK_EQ(utilities[i].dim(), dim_);
  TopIndicesKernel(blocks_.data(), points_.size(), dim_, utilities, m, out);
}

size_t Dataset::TopIndex(const Vec& u) const {
  size_t top = 0;
  TopIndicesInto(&u, 1, &top);
  return top;
}

std::vector<size_t> Dataset::TopIndices(
    const std::vector<Vec>& utilities) const {
  std::vector<size_t> top(utilities.size());
  TopIndicesInto(utilities.data(), utilities.size(), top.data());
  return top;
}

double Dataset::TopUtility(const Vec& u) const {
  return Dot(u, points_[TopIndex(u)]);
}

Dataset Dataset::Normalized(const std::vector<bool>& higher_is_better,
                            double floor) const {
  std::vector<Vec> rows = points_;
  NormalizeRows(rows, higher_is_better, floor);
  Dataset out(std::move(rows));
  out.names_ = names_;
  return out;
}

void NormalizeRows(std::vector<Vec>& rows,
                   const std::vector<bool>& higher_is_better, double floor) {
  ISRL_CHECK(!rows.empty());
  ISRL_CHECK_GT(floor, 0.0);
  ISRL_CHECK_LT(floor, 1.0);
  const size_t dim = rows[0].dim();
  if (!higher_is_better.empty()) {
    ISRL_CHECK_EQ(higher_is_better.size(), dim);
  }

  Vec lo(dim, std::numeric_limits<double>::infinity());
  Vec hi(dim, -std::numeric_limits<double>::infinity());
  for (const Vec& p : rows) {
    ISRL_CHECK_EQ(p.dim(), dim);
    for (size_t c = 0; c < dim; ++c) {
      lo[c] = std::min(lo[c], p[c]);
      hi[c] = std::max(hi[c], p[c]);
    }
  }

  for (Vec& p : rows) {
    for (size_t c = 0; c < dim; ++c) {
      double range = hi[c] - lo[c];
      double t = range > 0.0 ? (p[c] - lo[c]) / range : 1.0;
      bool invert = !higher_is_better.empty() && !higher_is_better[c];
      if (invert) t = 1.0 - t;
      p[c] = floor + (1.0 - floor) * t;
    }
  }
}

}  // namespace isrl
