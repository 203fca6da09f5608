// Substrate microbenchmarks (google-benchmark): LP solves, polyhedron cuts
// with vertex enumeration, enclosing balls, hit-and-run, skyline, DQN
// forward/backward — the per-round cost drivers of EA and AA.
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>

#include "baselines/single_pass.h"
#include "baselines/uh_random.h"
#include "baselines/uh_simplex.h"
#include "baselines/utility_approx.h"
#include "common/rng.h"
#include "core/aa.h"
#include "core/aa_state.h"
#include "core/ea.h"
#include "core/scheduler.h"
#include "core/ea_state.h"
#include "serve/sharding.h"
#include "core/terminal.h"
#include "data/skyline.h"
#include "data/synthetic.h"
#include "geometry/enclosing_ball.h"
#include "geometry/hit_and_run.h"
#include "geometry/polyhedron.h"
#include "lp/simplex.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "rl/dqn.h"
#include "user/sampler.h"

namespace isrl {
namespace {

// ---- LP: inner-sphere-style solve at growing constraint counts. ----
void BM_LpInnerSphere(benchmark::State& state) {
  const size_t d = 8;
  const size_t constraints = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Dataset data = GenerateSynthetic(200, d, Distribution::kAntiCorrelated, rng);
  std::vector<LearnedHalfspace> h;
  Vec u = rng.SimplexUniform(d);
  while (h.size() < constraints) {
    size_t a = static_cast<size_t>(rng.UniformInt(0, 199));
    size_t b = static_cast<size_t>(rng.UniformInt(0, 199));
    if (a == b) continue;
    bool pref = Dot(u, data.point(a)) >= Dot(u, data.point(b));
    LearnedHalfspace lh;
    lh.winner = pref ? a : b;
    lh.loser = pref ? b : a;
    lh.h = PreferenceHalfspace(data.point(lh.winner), data.point(lh.loser));
    h.push_back(lh);
  }
  for (auto _ : state) {
    AaGeometry geo = ComputeAaGeometry(d, h);
    benchmark::DoNotOptimize(geo);
  }
}
BENCHMARK(BM_LpInnerSphere)->Arg(4)->Arg(16)->Arg(64);

// ---- Polyhedron: cut + full vertex enumeration. ----
void BM_PolyhedronCut(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    Polyhedron p = Polyhedron::UnitSimplex(d);
    std::vector<Halfspace> cuts;
    for (int i = 0; i < 6; ++i) {
      cuts.push_back(Halfspace{rng.SimplexUniform(d) - rng.SimplexUniform(d), 0.0});
    }
    state.ResumeTiming();
    for (const Halfspace& h : cuts) {
      p.Cut(h);
      if (p.IsEmpty()) break;
    }
    benchmark::DoNotOptimize(p.vertices());
  }
}
BENCHMARK(BM_PolyhedronCut)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// ---- Enclosing balls. ----
void BM_IterativeOuterBall(benchmark::State& state) {
  Rng rng(3);
  std::vector<Vec> pts;
  for (int i = 0; i < 40; ++i) pts.push_back(rng.SimplexUniform(5));
  for (auto _ : state) {
    Ball b = IterativeOuterBall(pts);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_IterativeOuterBall);

void BM_WelzlBall(benchmark::State& state) {
  Rng rng(4);
  std::vector<Vec> pts;
  for (int i = 0; i < 40; ++i) pts.push_back(rng.SimplexUniform(5));
  for (auto _ : state) {
    Ball b = WelzlMinimumBall(pts, rng);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_WelzlBall);

// ---- Hit-and-run sampling. ----
void BM_HitAndRun(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<Halfspace> cuts;
  for (int i = 0; i < 20; ++i) {
    Vec a = rng.SimplexUniform(d), b = rng.SimplexUniform(d);
    Halfspace h{a - b, 0.0};
    Vec center(d, 1.0 / static_cast<double>(d));
    if (!h.Contains(center)) h = h.Flipped();
    cuts.push_back(h);
  }
  Vec start(d, 1.0 / static_cast<double>(d));
  for (auto _ : state) {
    auto samples = HitAndRunSample(cuts, start, 64, rng);
    benchmark::DoNotOptimize(samples);
  }
}
BENCHMARK(BM_HitAndRun)->Arg(4)->Arg(20);

// ---- Skyline. ----
void BM_Skyline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  Dataset data = GenerateSynthetic(n, 4, Distribution::kAntiCorrelated, rng);
  for (auto _ : state) {
    auto idx = SkylineIndices(data);
    benchmark::DoNotOptimize(idx);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Skyline)->Arg(1000)->Arg(10000)->Arg(100000);

// ---- DQN forward / update. ----
void BM_DqnForward(benchmark::State& state) {
  Rng rng(7);
  rl::DqnOptions opt;
  rl::DqnAgent agent(33, opt, rng);
  Vec input(33);
  for (size_t i = 0; i < 33; ++i) input[i] = rng.Uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.QValue(input));
  }
}
BENCHMARK(BM_DqnForward);

void BM_DqnUpdate(benchmark::State& state) {
  Rng rng(8);
  rl::DqnOptions opt;
  rl::DqnAgent agent(33, opt, rng);
  for (int i = 0; i < 256; ++i) {
    rl::Transition t;
    t.state_action = Vec(33, rng.Uniform(0, 1));
    t.reward = rng.Uniform(0, 100);
    t.terminal = rng.Bernoulli(0.3);
    if (!t.terminal) t.next_candidates = {Vec(33, 0.5), Vec(33, 0.1)};
    agent.Remember(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Update(rng));
  }
}
BENCHMARK(BM_DqnUpdate);

// ---- Scalar vs batched execution (DESIGN.md §12). ----
// Arg 1 of each pair selects the path: 0 = scalar reference, 1 = batched.
// Both paths produce bit-identical numbers; only the kernel shape differs.

// One Q-network Infer per candidate vs the agent's greedy selection, one
// GEMM per layer for the whole pool.
void BM_DqnScoreCandidates(benchmark::State& state) {
  const size_t pool = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) == 1;
  Rng rng(14);
  rl::DqnAgent agent(33, rl::DqnOptions(), rng);
  std::vector<Vec> candidates;
  candidates.reserve(pool);
  for (size_t i = 0; i < pool; ++i) {
    Vec c(33);
    for (size_t j = 0; j < 33; ++j) c[j] = rng.Uniform(0, 1);
    candidates.push_back(std::move(c));
  }
  nn::Network& net = agent.main_network();
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(agent.SelectGreedy(candidates));
    } else {
      size_t best = 0;
      double best_q = net.Infer(candidates[0]);
      for (size_t i = 1; i < pool; ++i) {
        const double q = net.Infer(candidates[i]);
        if (q > best_q) {
          best_q = q;
          best = i;
        }
      }
      benchmark::DoNotOptimize(best);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pool));
}
BENCHMARK(BM_DqnScoreCandidates)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// The full training update at batch_size 64: TD-target computation, forward,
// backward. The first arg picks the activation: SELU (the paper default)
// spends most of the pass in std::exp, while ReLU (the in-tree ablation) is
// GEMM-bound. The second arg is the next-candidate pool size per
// non-terminal transition: 8 matches the paper's m_h ≈ 5 action space, 64 is
// the large-action-space configuration where the TD-target stack dominates.
void BM_DqnUpdateBatch64(benchmark::State& state) {
  Rng rng(15);
  rl::DqnOptions opt;
  opt.activation =
      state.range(0) == 1 ? nn::Activation::kRelu : nn::Activation::kSelu;
  opt.batch_size = 64;
  opt.min_replay_before_update = 64;
  const int pool = static_cast<int>(state.range(1));
  rl::DqnAgent agent(33, opt, rng);
  for (int i = 0; i < 512; ++i) {
    rl::Transition t;
    t.state_action = Vec(33);
    for (size_t j = 0; j < 33; ++j) t.state_action[j] = rng.Uniform(0, 1);
    t.reward = rng.Uniform(0, 100);
    t.terminal = rng.Bernoulli(0.3);
    if (!t.terminal) {
      for (int c = 0; c < pool; ++c) {
        Vec cand(33);
        for (size_t j = 0; j < 33; ++j) cand[j] = rng.Uniform(0, 1);
        t.next_candidates.push_back(std::move(cand));
      }
    }
    agent.Remember(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Update(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_DqnUpdateBatch64)
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({0, 64})
    ->Args({1, 64});

// Raw network substrate: scalar Predict loop vs one PredictBatch call.
void BM_NnPredictBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) == 1;
  Rng rng(16);
  nn::Network net =
      nn::Network::Mlp({33, 64, 1}, nn::Activation::kSelu, rng);
  Matrix inputs(batch, 33);
  for (double& v : inputs.data()) v = rng.Uniform(0, 1);
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(net.PredictBatch(inputs));
    } else {
      double sum = 0.0;
      for (size_t r = 0; r < batch; ++r) sum += net.Infer(inputs.RowVec(r));
      benchmark::DoNotOptimize(sum);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_NnPredictBatch)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// ---- Rng engine: Mt19937_64 vs std::mt19937_64 (same draws). ----
// Every session samples utilities through Rng, so its checkpointable
// engine must draw as fast as the standard one it replaced. Kind 0 = 1024
// raw 64-bit draws; kind 1 = 64 SimplexUniform(4) draws, the sampling hot
// path. Mode 0 = std::mt19937_64 (SimplexUniform restated over it), mode
// 1 = Rng's Mt19937_64.
Vec StdSimplexUniform(std::mt19937_64& engine, size_t d) {
  Vec u(d);
  double sum = 0.0;
  for (size_t i = 0; i < d; ++i) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    u[i] = -std::log(1.0 - unit(engine));
    sum += u[i];
  }
  u /= sum;
  return u;
}

template <typename Engine>
void RawDraws(benchmark::State& state, Engine& engine) {
  for (auto _ : state) {
    uint64_t acc = 0;
    for (int i = 0; i < 1024; ++i) acc ^= engine();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}

void BM_RngDraw(benchmark::State& state) {
  const bool simplex = state.range(0) == 1;
  const bool ours = state.range(1) == 1;
  Rng rng(31);
  std::mt19937_64 reference(31);
  if (!simplex) {
    if (ours) {
      RawDraws(state, rng.engine());
    } else {
      RawDraws(state, reference);
    }
    return;
  }
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      if (ours) {
        benchmark::DoNotOptimize(rng.SimplexUniform(4));
      } else {
        benchmark::DoNotOptimize(StdSimplexUniform(reference, 4));
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_RngDraw)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// ---- Top-1 scans: the restated scalar loop (mode 0) vs Dataset's blocked
// kernel (mode 1), which returns the same indices. Shapes {n, d, m}: the
// aa-player20 and aa-anti20 skylines × 65 AA samples, the ea-anti4 skyline
// × 111 EA utilities, and one utility (TopIndex). ----
struct TopShape {
  size_t n, d, m;
};
constexpr TopShape kTopShapes[] = {
    {6413, 20, 65}, {1936, 20, 65}, {311, 4, 111}, {6413, 20, 1}};

// The scalar first-maximum scan the kernel replaced.
size_t LoopTopIndex(const Dataset& data, const Vec& u) {
  size_t best = 0;
  double best_utility = Dot(u, data.point(0));
  for (size_t i = 1; i < data.size(); ++i) {
    double utility = Dot(u, data.point(i));
    if (utility > best_utility) {
      best_utility = utility;
      best = i;
    }
  }
  return best;
}

// TerminalWinners on the scalar loop: a scan for the top utility and one
// more for every new winner.
std::vector<size_t> LoopTerminalWinners(const Dataset& data,
                                        const std::vector<Vec>& utilities,
                                        double epsilon) {
  std::vector<size_t> winners;
  for (const Vec& u : utilities) {
    double top = Dot(u, data.point(LoopTopIndex(data, u)));
    if (top <= 0.0) continue;
    const double bar = (1.0 - epsilon) * top;
    bool covered = false;
    for (size_t w : winners) {
      if (Dot(u, data.point(w)) >= bar) {
        covered = true;
        break;
      }
    }
    if (!covered) winners.push_back(LoopTopIndex(data, u));
  }
  return winners;
}

// Anti-correlated points of the shape (d = 4 takes a skyline prefix, as
// ea-anti4 scans a skyline) and m simplex-uniform utilities.
Dataset TopShapeData(const TopShape& shape, std::vector<Vec>* utilities) {
  Rng rng(9);
  Dataset data(shape.d);
  if (shape.d <= 4) {
    Dataset sky = SkylineOf(GenerateSynthetic(
        20 * shape.n, shape.d, Distribution::kAntiCorrelated, rng));
    ISRL_CHECK_GE(sky.size(), shape.n);
    for (size_t i = 0; i < shape.n; ++i) data.Add(sky.point(i));
  } else {
    data = GenerateSynthetic(shape.n, shape.d, Distribution::kAntiCorrelated,
                             rng);
  }
  *utilities = SampleUtilityVectors(shape.m, shape.d, rng);
  return data;
}

void TopShapeArgs(benchmark::internal::Benchmark* b) {
  for (int64_t shape = 0; shape < 4; ++shape) {
    b->Args({shape, 0});
    b->Args({shape, 1});
  }
}

void BM_TopIndex(benchmark::State& state) {
  const TopShape& shape = kTopShapes[state.range(0)];
  const bool kernel = state.range(1) == 1;
  std::vector<Vec> utils;
  Dataset data = TopShapeData(shape, &utils);
  for (auto _ : state) {
    if (kernel) {
      if (utils.size() == 1) {
        benchmark::DoNotOptimize(data.TopIndex(utils[0]));
      } else {
        benchmark::DoNotOptimize(data.TopIndices(utils));
      }
    } else {
      for (const Vec& u : utils) {
        benchmark::DoNotOptimize(LoopTopIndex(data, u));
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * shape.n *
                                               shape.m));
}
BENCHMARK(BM_TopIndex)->Apply(TopShapeArgs);

// ---- Core operations: the per-round cost drivers of EA. ----
void BM_TerminalWinners(benchmark::State& state) {
  const TopShape& shape = kTopShapes[state.range(0)];
  const bool kernel = state.range(1) == 1;
  std::vector<Vec> utils;
  Dataset data = TopShapeData(shape, &utils);
  for (auto _ : state) {
    auto winners = kernel ? TerminalWinners(data, utils, 0.1)
                          : LoopTerminalWinners(data, utils, 0.1);
    benchmark::DoNotOptimize(winners);
  }
}
BENCHMARK(BM_TerminalWinners)->Apply(TopShapeArgs);

void BM_EaStateEncode(benchmark::State& state) {
  Rng rng(11);
  Polyhedron p = Polyhedron::UnitSimplex(4);
  for (int i = 0; i < 6; ++i) {
    Vec a = rng.SimplexUniform(4), b = rng.SimplexUniform(4);
    Polyhedron next = p;
    next.Cut(Halfspace{a - b, 0.0});
    if (!next.IsEmpty()) p = next;
  }
  EaStateOptions opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeEaState(p, opt));
  }
}
BENCHMARK(BM_EaStateEncode);

// ---- Sans-IO scheduler throughput (DESIGN.md §13). ----
// N complete episodes, mode 0 = N sequential Interact() calls, mode 1 = one
// SessionScheduler interleaving all N with cross-session coalesced
// Q-inference (one PredictBatch over every in-flight session's candidate
// pool per tick, instead of one small call per session per round). Both
// modes run the identical seeded episodes — items processed counts the
// questions answered, so items/sec is the serving throughput headline.

InteractionResult RunSeeded(InteractiveAlgorithm& algo, const Vec& utility,
                            uint64_t seed, const RunBudget& budget) {
  algo.Reseed(seed);
  LinearUser user(utility);
  return algo.Interact(user, budget);
}

void RunSessionThroughput(benchmark::State& state, InteractiveAlgorithm& algo,
                          const std::vector<Vec>& utilities) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  const bool scheduled = state.range(1) == 1;
  RunBudget budget;
  budget.max_rounds = 10;  // interactive users answer a handful of questions
  int64_t questions = 0;
  for (auto _ : state) {
    if (scheduled) {
      SessionScheduler scheduler;
      std::vector<std::unique_ptr<UserOracle>> owned;
      std::vector<UserOracle*> users;
      for (size_t i = 0; i < sessions; ++i) {
        SessionConfig config;
        config.budget = budget;
        config.seed = SplitSeed(17, i);
        scheduler.Add(algo.StartSession(config));
        owned.push_back(std::make_unique<LinearUser>(utilities[i]));
        users.push_back(owned.back().get());
      }
      for (const InteractionResult& r : DriveWithUsers(scheduler, users)) {
        questions += static_cast<int64_t>(r.rounds);
      }
    } else {
      for (size_t i = 0; i < sessions; ++i) {
        questions += static_cast<int64_t>(
            RunSeeded(algo, utilities[i], SplitSeed(17, i), budget).rounds);
      }
    }
  }
  state.SetItemsProcessed(questions);
}

// Serving-shaped configuration: the trained Q-network is the per-round cost
// EA/AA add over the baselines, so give it paper-real width and keep the
// action sampling lean — the regime where coalescing pays.
rl::DqnOptions ServingDqn() {
  rl::DqnOptions opt;
  opt.hidden_neurons = 256;
  return opt;
}

void BM_SessionThroughputEa(benchmark::State& state) {
  Rng rng(18);
  Dataset raw = GenerateSynthetic(800, 3, Distribution::kAntiCorrelated, rng);
  Dataset sky = SkylineOf(raw);
  EaOptions opt;
  opt.epsilon = 0.05;
  opt.dqn = ServingDqn();
  opt.actions.num_samples = 16;
  Ea ea(sky, opt);
  const size_t sessions = static_cast<size_t>(state.range(0));
  std::vector<Vec> utilities;
  for (size_t i = 0; i < sessions; ++i) {
    utilities.push_back(rng.SimplexUniform(3));
  }
  RunSessionThroughput(state, ea, utilities);
}
BENCHMARK(BM_SessionThroughputEa)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SessionThroughputAa(benchmark::State& state) {
  Rng rng(19);
  Dataset raw = GenerateSynthetic(800, 3, Distribution::kAntiCorrelated, rng);
  Dataset sky = SkylineOf(raw);
  AaOptions opt;
  opt.epsilon = 0.1;
  opt.dqn = ServingDqn();
  opt.actions.pool_samples = 16;
  Aa aa(sky, opt);
  const size_t sessions = static_cast<size_t>(state.range(0));
  std::vector<Vec> utilities;
  for (size_t i = 0; i < sessions; ++i) {
    utilities.push_back(rng.SimplexUniform(3));
  }
  RunSessionThroughput(state, aa, utilities);
}
BENCHMARK(BM_SessionThroughputAa)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

// ---- Sharded serving throughput (DESIGN.md §15). ----
// N complete episodes on a ShardedScheduler: S SessionScheduler shards
// pinned to worker threads, sessions routed by id % S, one coalesced
// PredictBatch per shard per tick. shards == 1 is the scaling baseline —
// the same engine with one worker — so the shard axis isolates what
// adding threads buys. Wall-clock (UseRealTime) is the serving headline;
// process CPU time is measured alongside so a single-core host — where S
// shards interleave on one core instead of running in parallel — reports
// the lack of speedup honestly instead of hiding it.

void RunShardedThroughput(
    benchmark::State& state,
    const std::vector<std::unique_ptr<InteractiveAlgorithm>>& clones,
    const std::vector<Vec>& utilities) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  RunBudget budget;
  budget.max_rounds = 10;
  int64_t questions = 0;
  for (auto _ : state) {
    ShardedScheduler sharded(ShardedOptions{shards});
    std::vector<std::unique_ptr<UserOracle>> owned;
    std::vector<UserOracle*> users;
    for (size_t i = 0; i < sessions; ++i) {
      SessionConfig config;
      config.budget = budget;
      config.seed = SplitSeed(17, i);
      // Session i lands on shard i % S; hand it that shard's clone so RL
      // scoring scratch is never shared across worker threads.
      sharded.Add(clones[i % shards]->StartSession(config),
                  clones[i % shards].get());
      owned.push_back(std::make_unique<LinearUser>(utilities[i]));
      users.push_back(owned.back().get());
    }
    Result<std::vector<InteractionResult>> results =
        DriveSharded(sharded, users);
    if (!results.ok()) {
      state.SkipWithError(results.status().ToString().c_str());
      return;
    }
    for (const InteractionResult& r : results.value()) {
      questions += static_cast<int64_t>(r.rounds);
    }
  }
  state.SetItemsProcessed(questions);
}

void BM_ShardedThroughputEa(benchmark::State& state) {
  Rng rng(18);  // same data/seeds as BM_SessionThroughputEa: comparable rows
  Dataset raw = GenerateSynthetic(800, 3, Distribution::kAntiCorrelated, rng);
  Dataset sky = SkylineOf(raw);
  EaOptions opt;
  opt.epsilon = 0.05;
  opt.dqn = ServingDqn();
  opt.actions.num_samples = 16;
  Ea ea(sky, opt);
  std::vector<std::unique_ptr<InteractiveAlgorithm>> clones;
  for (int64_t k = 0; k < state.range(1); ++k) {
    clones.push_back(ea.CloneForEval());
  }
  const size_t sessions = static_cast<size_t>(state.range(0));
  std::vector<Vec> utilities;
  for (size_t i = 0; i < sessions; ++i) {
    utilities.push_back(rng.SimplexUniform(3));
  }
  RunShardedThroughput(state, clones, utilities);
}
BENCHMARK(BM_ShardedThroughputEa)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({1024, 8})
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Args({16384, 1})
    ->Args({16384, 2})
    ->Args({16384, 4})
    ->Args({16384, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_ShardedThroughputAa(benchmark::State& state) {
  Rng rng(19);  // same data/seeds as BM_SessionThroughputAa
  Dataset raw = GenerateSynthetic(800, 3, Distribution::kAntiCorrelated, rng);
  Dataset sky = SkylineOf(raw);
  AaOptions opt;
  opt.epsilon = 0.1;
  opt.dqn = ServingDqn();
  opt.actions.pool_samples = 16;
  Aa aa(sky, opt);
  std::vector<std::unique_ptr<InteractiveAlgorithm>> clones;
  for (int64_t k = 0; k < state.range(1); ++k) {
    clones.push_back(aa.CloneForEval());
  }
  const size_t sessions = static_cast<size_t>(state.range(0));
  std::vector<Vec> utilities;
  for (size_t i = 0; i < sessions; ++i) {
    utilities.push_back(rng.SimplexUniform(3));
  }
  RunShardedThroughput(state, clones, utilities);
}
BENCHMARK(BM_ShardedThroughputAa)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({1024, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// ---- Durable sessions: checkpoint save / restore (DESIGN.md §14). ----
// A scheduler population of N sessions parked mid-conversation. Mode 0
// times CheckpointAll() — serialize every live session into one framed,
// checksummed population snapshot — and mode 1 times RestoreAll() — verify
// the frame and rebuild every session from its bytes. The snapshot_bytes
// counter reports the population snapshot size, so the checked-in
// BENCH_checkpoint.json doubles as a size-regression record.

Dataset CheckpointSkyline() {
  Rng rng(21);
  Dataset raw = GenerateSynthetic(400, 4, Distribution::kAntiCorrelated, rng);
  return SkylineOf(raw);
}

void RunCheckpoint(benchmark::State& state, InteractiveAlgorithm& algo) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  const bool restore = state.range(1) == 1;
  Rng rng(22);
  RunBudget budget;
  budget.max_rounds = 50;
  SessionScheduler scheduler;
  std::vector<std::unique_ptr<UserOracle>> owned;
  std::vector<UserOracle*> users;
  for (size_t i = 0; i < sessions; ++i) {
    SessionConfig config;
    config.budget = budget;
    config.seed = SplitSeed(23, i);
    scheduler.Add(algo.StartSession(config), &algo);
    owned.push_back(std::make_unique<LinearUser>(rng.SimplexUniform(4)));
    users.push_back(owned.back().get());
  }
  // Two answered rounds each: the snapshot carries real mid-flight state
  // (cut polyhedra / learned halfspaces), not freshly constructed sessions.
  for (int tick = 0; tick < 2; ++tick) {
    for (const PendingQuestion& pq : scheduler.Tick()) {
      scheduler.PostAnswer(
          pq.session_id,
          users[pq.session_id]->Ask(pq.question.first, pq.question.second));
    }
  }
  Result<std::string> snapshot = scheduler.CheckpointAll();
  if (!snapshot.ok()) {
    state.SkipWithError(snapshot.status().ToString().c_str());
    return;
  }
  AlgorithmResolver resolver =
      [&algo](const std::string& name) -> InteractiveAlgorithm* {
    return name == algo.name() ? &algo : nullptr;
  };
  for (auto _ : state) {
    if (restore) {
      Result<SessionScheduler> restored =
          SessionScheduler::RestoreAll(*snapshot, resolver);
      benchmark::DoNotOptimize(restored);
    } else {
      Result<std::string> bytes = scheduler.CheckpointAll();
      benchmark::DoNotOptimize(bytes);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sessions));
  state.counters["snapshot_bytes"] = static_cast<double>(snapshot->size());
}

void BM_CheckpointEa(benchmark::State& state) {
  Dataset sky = CheckpointSkyline();
  EaOptions opt;
  opt.epsilon = 0.1;
  Ea ea(sky, opt);
  RunCheckpoint(state, ea);
}
BENCHMARK(BM_CheckpointEa)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointAa(benchmark::State& state) {
  Dataset sky = CheckpointSkyline();
  AaOptions opt;
  opt.epsilon = 0.1;
  Aa aa(sky, opt);
  RunCheckpoint(state, aa);
}
BENCHMARK(BM_CheckpointAa)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointUhRandom(benchmark::State& state) {
  Dataset sky = CheckpointSkyline();
  UhOptions opt;
  opt.epsilon = 0.1;
  UhRandom uh(sky, opt);
  RunCheckpoint(state, uh);
}
BENCHMARK(BM_CheckpointUhRandom)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointUhSimplex(benchmark::State& state) {
  Dataset sky = CheckpointSkyline();
  UhOptions opt;
  opt.epsilon = 0.1;
  UhSimplex uh(sky, opt);
  RunCheckpoint(state, uh);
}
BENCHMARK(BM_CheckpointUhSimplex)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointSinglePass(benchmark::State& state) {
  Dataset sky = CheckpointSkyline();
  SinglePassOptions opt;
  opt.epsilon = 0.1;
  SinglePass sp(sky, opt);
  RunCheckpoint(state, sp);
}
BENCHMARK(BM_CheckpointSinglePass)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointUtilityApprox(benchmark::State& state) {
  Dataset sky = CheckpointSkyline();
  UtilityApproxOptions opt;
  opt.epsilon = 0.1;
  UtilityApprox ua(sky, opt);
  RunCheckpoint(state, ua);
}
BENCHMARK(BM_CheckpointUtilityApprox)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace isrl

// The system libbenchmark is compiled without NDEBUG and self-reports
// "debug" in the JSON context regardless of how isrl was built. Record the
// build type of the code under test so tools/bench_to_json.py can tell a
// debug-library warning from a debug-measurement problem.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("isrl_build_type", "release");
#else
  benchmark::AddCustomContext("isrl_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
