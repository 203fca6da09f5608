#include "user/user.h"

#include <cmath>

#include "common/check.h"

namespace isrl {

LinearUser::LinearUser(Vec utility) : utility_(std::move(utility)) {
  double sum = 0.0;
  for (size_t i = 0; i < utility_.dim(); ++i) {
    ISRL_CHECK_GE(utility_[i], 0.0);
    sum += utility_[i];
  }
  ISRL_CHECK_LE(std::abs(sum - 1.0), 1e-6);
}

bool LinearUser::Prefers(const Vec& a, const Vec& b) {
  ++questions_asked_;
  return Dot(utility_, a) >= Dot(utility_, b);
}

NoisyUser::NoisyUser(Vec utility, double error_rate, uint64_t seed)
    : inner_(std::move(utility)), error_rate_(error_rate), rng_(seed) {
  ISRL_CHECK_GE(error_rate, 0.0);
  ISRL_CHECK_LT(error_rate, 0.5);
}

bool NoisyUser::Prefers(const Vec& a, const Vec& b) {
  ++questions_asked_;
  bool truthful = Dot(inner_.utility(), a) >= Dot(inner_.utility(), b);
  return rng_.Bernoulli(error_rate_) ? !truthful : truthful;
}

MajorityVoteUser::MajorityVoteUser(std::unique_ptr<UserOracle> inner,
                                   size_t votes)
    : inner_(std::move(inner)), votes_(votes) {
  ISRL_CHECK(inner_ != nullptr);
  ISRL_CHECK_EQ(votes % 2, 1u);
}

bool MajorityVoteUser::Prefers(const Vec& a, const Vec& b) {
  ++questions_asked_;
  size_t yes = 0;
  for (size_t i = 0; i < votes_; ++i) {
    if (inner_->Prefers(a, b)) ++yes;
  }
  return yes * 2 > votes_;
}

}  // namespace isrl
