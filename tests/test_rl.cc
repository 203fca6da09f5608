// Unit tests for the RL substrate: replay memory, ε schedule, DQN agent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "nn/optimizer.h"
#include "rl/dqn.h"
#include "rl/prioritized_replay.h"
#include "rl/replay.h"
#include "rl/schedule.h"

namespace isrl::rl {
namespace {

TEST(ReplayTest, GrowsToCapacityThenWraps) {
  ReplayMemory mem(3);
  EXPECT_TRUE(mem.empty());
  for (int i = 0; i < 5; ++i) {
    Transition t;
    t.state_action = Vec{static_cast<double>(i)};
    t.reward = i;
    mem.Add(std::move(t));
  }
  EXPECT_EQ(mem.size(), 3u);
  // The ring now holds rewards {2, 3, 4}: sampling must never see 0 or 1.
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    auto batch = mem.Sample(4, rng);
    for (const Transition* t : batch) EXPECT_GE(t->reward, 2.0);
  }
}

TEST(ReplayTest, SampleSizeRespected) {
  ReplayMemory mem(10);
  Transition t;
  t.state_action = Vec{1.0};
  mem.Add(t);
  Rng rng(2);
  EXPECT_EQ(mem.Sample(7, rng).size(), 7u);  // with replacement
}

TEST(ReplayDeathTest, SampleFromEmptyAborts) {
  ReplayMemory mem(2);
  Rng rng(3);
  EXPECT_DEATH(mem.Sample(1, rng), "ISRL_CHECK");
}

Transition PerTransition(double feature) {
  Transition t;
  t.state_action = Vec{feature};
  t.reward = feature;
  t.terminal = true;
  return t;
}

// A current update handle for slot `index` after `adds` Adds into a ring of
// `capacity` slots: Add number g (1-based) writes slot (g - 1) % capacity
// and stamps it with generation g.
PrioritizedSample FreshHandle(size_t index, uint64_t adds, size_t capacity) {
  PrioritizedSample s;
  s.index = index;
  s.generation = adds - (adds - 1 - index) % capacity;
  return s;
}

// The generation stamp Sample reports for `slot` (drawn until it appears).
uint64_t SampledGeneration(const PrioritizedReplayMemory& mem, size_t slot,
                           Rng& rng) {
  for (;;) {
    for (const PrioritizedSample& s : mem.Sample(16, rng)) {
      if (s.index == slot) return s.generation;
    }
  }
}

// Regression for the stale-index bug: a sample handle held across a ring
// wrap used to re-prioritise whatever transition had since been written into
// the same slot. With generation stamps the late update must be rejected and
// the new occupant's priority left untouched.
TEST(PrioritizedReplayBugTest, StaleHandleAcrossWrapIsRejected) {
  PrioritizedReplayMemory mem(4);
  for (int i = 0; i < 4; ++i) mem.Add(PerTransition(i));
  Rng rng(7);
  std::vector<PrioritizedSample> batch = mem.Sample(4, rng);

  // Two more Adds wrap the ring: slots 0 and 1 now hold different
  // transitions than the ones the batch sampled.
  mem.Add(PerTransition(100.0));
  mem.Add(PerTransition(101.0));

  for (const PrioritizedSample& s : batch) {
    const double before = mem.priority(s.index);
    const bool applied = mem.UpdatePriority(s, 1e6);
    if (s.index <= 1) {
      EXPECT_FALSE(applied) << "slot " << s.index << " was overwritten";
      EXPECT_DOUBLE_EQ(mem.priority(s.index), before)
          << "stale update must not touch the new occupant";
    } else {
      EXPECT_TRUE(applied) << "slot " << s.index << " was not overwritten";
    }
  }
}

TEST(PrioritizedReplayBugTest, ReusedSlotGetsFreshGeneration) {
  PrioritizedReplayMemory mem(2);
  Rng rng(9);
  mem.Add(PerTransition(1.0));
  const uint64_t g0 = SampledGeneration(mem, 0, rng);
  mem.Add(PerTransition(2.0));
  mem.Add(PerTransition(3.0));  // wraps into slot 0
  EXPECT_NE(SampledGeneration(mem, 0, rng), g0);
}

// The maintained sum tree must agree with a direct recomputation after an
// arbitrary interleaving of Adds (with wraps) and priority updates.
TEST(PrioritizedReplayTreeTest, AggregatesMatchDirectScan) {
  PrioritizedReplayMemory mem(6);  // non-power-of-two: padding leaves in play
  Rng rng(11);
  for (int step = 0; step < 200; ++step) {
    mem.Add(PerTransition(step));
    if (!mem.empty() && step % 3 == 0) {
      size_t slot = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mem.size()) - 1));
      ASSERT_TRUE(mem.UpdatePriority(FreshHandle(slot, step + 1, 6),
                                     rng.Uniform(0.0, 5.0)));
    }
    double sum = 0.0, mn = mem.priority(0);
    for (size_t i = 0; i < mem.size(); ++i) {
      sum += mem.priority(i);
      mn = std::min(mn, mem.priority(i));
    }
    ASSERT_NEAR(mem.total_priority(), sum, 1e-9 * (1.0 + sum));
    ASSERT_DOUBLE_EQ(mem.min_priority(), mn);
  }
}

// Empirical sampling frequencies must track priority^α. This pins down the
// tree descent (the old cumulative scan had a tail-clamp bias that dumped
// the rounding mass on the last slot).
TEST(PrioritizedReplayTreeTest, SampleFrequenciesTrackPriorities) {
  PrioritizedOptions opt;
  opt.alpha = 1.0;  // probabilities directly proportional to priorities
  opt.priority_floor = 0.0;
  PrioritizedReplayMemory mem(5, opt);
  const double priorities[5] = {1.0, 2.0, 4.0, 8.0, 1.0};
  for (int i = 0; i < 5; ++i) mem.Add(PerTransition(i));
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(mem.UpdatePriority(FreshHandle(i, 5, 5), priorities[i]));
  }
  Rng rng(13);
  const size_t draws = 40000;
  size_t hits[5] = {0, 0, 0, 0, 0};
  for (const PrioritizedSample& s : mem.Sample(draws, rng)) ++hits[s.index];
  const double total = 16.0;
  for (size_t i = 0; i < 5; ++i) {
    const double expected = priorities[i] / total;
    const double observed = static_cast<double>(hits[i]) / draws;
    EXPECT_NEAR(observed, expected, 0.015) << "slot " << i;
  }
}

TEST(PrioritizedReplayTreeTest, SampledIndicesAlwaysInRange) {
  // Tail clamp: even with many draws and extreme priority skew, the descent
  // must never return a slot outside [0, size).
  PrioritizedReplayMemory mem(6);
  for (int i = 0; i < 3; ++i) mem.Add(PerTransition(i));  // size < capacity
  mem.UpdatePriority(FreshHandle(2, 3, 6), 1e9);
  Rng rng(17);
  for (const PrioritizedSample& s : mem.Sample(2000, rng)) {
    ASSERT_LT(s.index, 3u);
    ASSERT_NE(s.transition, nullptr);
  }
}

TEST(ScheduleTest, ConstantWhenStartEqualsEnd) {
  EpsilonSchedule s(0.9, 0.9, 100);
  EXPECT_DOUBLE_EQ(s.Value(0), 0.9);
  EXPECT_DOUBLE_EQ(s.Value(1000), 0.9);
}

TEST(ScheduleTest, LinearDecayEndsAtEnd) {
  EpsilonSchedule s(1.0, 0.1, 10);
  EXPECT_DOUBLE_EQ(s.Value(0), 1.0);
  EXPECT_NEAR(s.Value(5), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(s.Value(10), 0.1);
  EXPECT_DOUBLE_EQ(s.Value(999), 0.1);
}

TEST(ScheduleTest, ZeroDecayStepsJumpsToEnd) {
  EpsilonSchedule s(0.9, 0.2, 0);
  EXPECT_DOUBLE_EQ(s.Value(0), 0.2);
}

DqnOptions SmallOptions() {
  DqnOptions o;
  o.hidden_neurons = 16;
  o.batch_size = 16;
  o.min_replay_before_update = 16;
  o.learning_rate = 0.01;
  o.optimizer = OptimizerKind::kAdam;
  return o;
}

TEST(DqnTest, GreedySelectsHighestQ) {
  Rng rng(4);
  DqnAgent agent(2, SmallOptions(), rng);
  std::vector<Vec> candidates{Vec{0.1, 0.2}, Vec{0.5, -0.3}, Vec{0.9, 0.9}};
  size_t pick = agent.SelectGreedy(candidates);
  double best_q = agent.QValue(candidates[pick]);
  for (const Vec& c : candidates) EXPECT_GE(best_q, agent.QValue(c) - 1e-12);
  // The batched pool scoring is bit-identical to one QValue per candidate.
  Vec qs = agent.QValues(candidates);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(qs[i], agent.QValue(candidates[i]));
  }
}

TEST(DqnTest, EpsilonOneIsUniformRandom) {
  Rng rng(5);
  DqnAgent agent(1, SmallOptions(), rng);
  std::vector<Vec> candidates{Vec{0.0}, Vec{1.0}, Vec{2.0}};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) {
    counts[agent.SelectEpsilonGreedy(candidates, 1.0, rng)]++;
  }
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(DqnTest, EpsilonZeroIsGreedy) {
  Rng rng(6);
  DqnAgent agent(1, SmallOptions(), rng);
  std::vector<Vec> candidates{Vec{0.3}, Vec{-0.8}};
  size_t greedy = agent.SelectGreedy(candidates);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(agent.SelectEpsilonGreedy(candidates, 0.0, rng), greedy);
  }
}

TEST(DqnTest, NoUpdateBeforeMinReplay) {
  Rng rng(7);
  DqnAgent agent(1, SmallOptions(), rng);
  Transition t;
  t.state_action = Vec{0.5};
  t.reward = 1.0;
  t.terminal = true;
  agent.Remember(t);
  EXPECT_EQ(agent.Update(rng), 0.0);
  EXPECT_EQ(agent.num_updates(), 0u);
}

TEST(DqnTest, LearnsContextualBandit) {
  // One-step episodes: action feature +1 always pays 10, feature −1 pays 0.
  // After training, Q(+1) must clearly exceed Q(−1).
  Rng rng(8);
  DqnOptions opt = SmallOptions();
  opt.gamma = 0.8;
  DqnAgent agent(1, opt, rng);
  for (int i = 0; i < 200; ++i) {
    Transition good;
    good.state_action = Vec{1.0};
    good.reward = 10.0;
    good.terminal = true;
    agent.Remember(good);
    Transition bad;
    bad.state_action = Vec{-1.0};
    bad.reward = 0.0;
    bad.terminal = true;
    agent.Remember(bad);
    agent.Update(rng);
  }
  EXPECT_GT(agent.QValue(Vec{1.0}), agent.QValue(Vec{-1.0}) + 1.0);
  EXPECT_NEAR(agent.QValue(Vec{1.0}), 10.0, 3.0);
}

TEST(DqnTest, BootstrapsThroughNextCandidates) {
  // Two-step chain: state A (feature 0.5) leads to state B whose best
  // candidate (feature 1.0) pays 10 terminally. Q(A) should approach γ·10.
  Rng rng(9);
  DqnOptions opt = SmallOptions();
  opt.gamma = 0.5;
  opt.target_sync_every = 5;
  DqnAgent agent(1, opt, rng);
  for (int i = 0; i < 400; ++i) {
    Transition step2;
    step2.state_action = Vec{1.0};
    step2.reward = 10.0;
    step2.terminal = true;
    agent.Remember(step2);
    Transition step1;
    step1.state_action = Vec{0.5};
    step1.reward = 0.0;
    step1.terminal = false;
    step1.next_candidates = {Vec{1.0}};
    agent.Remember(step1);
    agent.Update(rng);
  }
  EXPECT_NEAR(agent.QValue(Vec{1.0}), 10.0, 3.0);
  EXPECT_NEAR(agent.QValue(Vec{0.5}), 5.0, 3.0);
}

TEST(DqnTest, TargetSyncCopiesWeights) {
  Rng rng(10);
  DqnOptions opt = SmallOptions();
  DqnAgent agent(2, opt, rng);
  // Push the main network away from the target, then sync.
  for (int i = 0; i < 40; ++i) {
    Transition t;
    t.state_action = Vec{0.5, 0.5};
    t.reward = 5.0;
    t.terminal = true;
    agent.Remember(t);
  }
  for (int i = 0; i < 10; ++i) agent.Update(rng);
  agent.SyncTarget();
  Vec probe{0.5, 0.5};
  EXPECT_NEAR(agent.main_network().Predict(probe),
              agent.target_network().Predict(probe), 1e-12);
}

TEST(DqnDeathTest, WrongInputDimAborts) {
  Rng rng(11);
  DqnAgent agent(3, SmallOptions(), rng);
  EXPECT_DEATH(agent.QValue(Vec{1.0}), "ISRL_CHECK");
}

// ---------- Batched vs scalar execution (DESIGN.md §12) ----------

// The scalar reference for DqnAgent::Update, built from public API only: it
// draws the same batch (same replay, same Rng), computes each TD target with
// one Infer per next candidate, fits it with one AccumulateRegressionSample
// per transition, and applies one step of a test-owned Adam. Driven on a
// twin of the agent under test, it must reproduce every loss and weight
// exactly — the batched update keeps the per-sample summation order.
class PerSampleUpdate {
 public:
  explicit PerSampleUpdate(DqnAgent& agent)
      : agent_(agent),
        adam_(agent.main_network().Params(), agent.options().learning_rate) {}

  double Update(Rng& rng) {
    const DqnOptions& opt = agent_.options();
    if (agent_.replay().size() < opt.min_replay_before_update) return 0.0;
    const double delta = opt.loss == LossKind::kHuber ? opt.huber_delta : 0.0;
    nn::Network& main = agent_.main_network();
    double loss_sum = 0.0;
    size_t count = 0;
    if (opt.prioritized_replay) {
      PrioritizedReplayMemory& memory = agent_.prioritized_replay();
      for (const PrioritizedSample& s : memory.Sample(opt.batch_size, rng)) {
        const double err = main.AccumulateRegressionSample(
            s.transition->state_action, TargetFor(*s.transition), s.weight,
            delta);
        memory.UpdatePriority(s, err);
        loss_sum += err * err;
        ++count;
      }
    } else {
      for (const Transition* t : agent_.replay().Sample(opt.batch_size, rng)) {
        const double err = main.AccumulateRegressionSample(
            t->state_action, TargetFor(*t), 1.0, delta);
        loss_sum += err * err;
        ++count;
      }
    }
    adam_.Step(count);
    ++updates_;
    if (opt.target_sync_every > 0 && updates_ % opt.target_sync_every == 0) {
      agent_.SyncTarget();
    }
    return loss_sum / static_cast<double>(count);
  }

 private:
  // r + γ·max Q̂(s', a') — or, for double DQN, Q̂ at the main net's argmax.
  double TargetFor(const Transition& t) {
    if (t.terminal || t.next_candidates.empty()) return t.reward;
    nn::Network& main = agent_.main_network();
    nn::Network& target = agent_.target_network();
    double best_next;
    if (agent_.options().double_dqn) {
      size_t best = 0;
      double best_main = main.Infer(t.next_candidates[0]);
      for (size_t i = 1; i < t.next_candidates.size(); ++i) {
        const double q = main.Infer(t.next_candidates[i]);
        if (q > best_main) {
          best_main = q;
          best = i;
        }
      }
      best_next = target.Infer(t.next_candidates[best]);
    } else {
      best_next = target.Infer(t.next_candidates[0]);
      for (size_t i = 1; i < t.next_candidates.size(); ++i) {
        best_next = std::max(best_next, target.Infer(t.next_candidates[i]));
      }
    }
    return t.reward + agent_.options().gamma * best_next;
  }

  DqnAgent& agent_;
  nn::Adam adam_;
  size_t updates_ = 0;
};

// Feeds two identically-seeded agents the same transition stream, then
// drives one through DqnAgent::Update and its twin through PerSampleUpdate
// with identically-seeded sampling Rngs. Every loss (and every network
// weight behind it) must come out exactly equal, not merely close.
void ExpectBatchedMatchesScalar(bool prioritized, bool double_dqn) {
  DqnOptions opt = SmallOptions();
  ASSERT_EQ(opt.optimizer, OptimizerKind::kAdam);  // PerSampleUpdate's Adam
  opt.prioritized_replay = prioritized;
  opt.double_dqn = double_dqn;
  opt.target_sync_every = 7;
  opt.loss = LossKind::kHuber;

  Rng init_a(77), init_b(77);
  DqnAgent batched(2, opt, init_a);
  DqnAgent scalar(2, opt, init_b);
  PerSampleUpdate reference(scalar);

  Rng stream(78);
  for (int i = 0; i < 60; ++i) {
    Transition t;
    t.state_action = Vec{stream.Uniform(-1.0, 1.0), stream.Uniform(-1.0, 1.0)};
    t.reward = stream.Uniform(-1.0, 2.0);
    t.terminal = i % 3 == 0;
    if (!t.terminal) {
      const size_t pool = 1 + static_cast<size_t>(stream.UniformInt(0, 4));
      for (size_t c = 0; c < pool; ++c) {
        t.next_candidates.push_back(
            Vec{stream.Uniform(-1.0, 1.0), stream.Uniform(-1.0, 1.0)});
      }
    }
    Transition copy = t;
    batched.Remember(std::move(t));
    scalar.Remember(std::move(copy));
  }

  Rng update_a(79), update_b(79);
  for (int i = 0; i < 25; ++i) {
    const double loss_batched = batched.Update(update_a);
    const double loss_scalar = reference.Update(update_b);
    EXPECT_EQ(loss_batched, loss_scalar) << "update " << i;
  }
  Vec probe{0.3, -0.6};
  EXPECT_EQ(batched.QValue(probe), scalar.QValue(probe));
  EXPECT_EQ(batched.target_network().Infer(probe),
            scalar.target_network().Infer(probe));

  // Greedy selection agrees with a per-candidate Infer argmax (same weights,
  // same first-maximum tie-breaking).
  std::vector<Vec> candidates{Vec{0.1, 0.2}, Vec{0.5, -0.3}, Vec{0.9, 0.9},
                              Vec{-0.2, 0.4}};
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (scalar.main_network().Infer(candidates[i]) >
        scalar.main_network().Infer(candidates[best])) {
      best = i;
    }
  }
  EXPECT_EQ(batched.SelectGreedy(candidates), best);
}

TEST(DqnBatchedTest, UniformReplayLossIdenticalToScalar) {
  ExpectBatchedMatchesScalar(/*prioritized=*/false, /*double_dqn=*/false);
}

TEST(DqnBatchedTest, UniformReplayDoubleDqnLossIdenticalToScalar) {
  ExpectBatchedMatchesScalar(/*prioritized=*/false, /*double_dqn=*/true);
}

TEST(DqnBatchedTest, PrioritizedReplayLossIdenticalToScalar) {
  ExpectBatchedMatchesScalar(/*prioritized=*/true, /*double_dqn=*/false);
}

TEST(DqnBatchedTest, PrioritizedDoubleDqnLossIdenticalToScalar) {
  ExpectBatchedMatchesScalar(/*prioritized=*/true, /*double_dqn=*/true);
}

}  // namespace
}  // namespace isrl::rl
