#include "e2e.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>

#include "common/strings.h"
#include "core/validation.h"
#include "serve/sharding.h"

namespace isrl::e2e {

namespace {

/// Saturation serves the users in this many back-to-back populations (the
/// first before the paced phase, the others after it) and reports their
/// pooled rate.
constexpr size_t kSaturationPopulations = 3;

/// Posts `answer` for session `id`. On failure the session would never
/// answer again, so it is cancelled to let the phase drain; its outcome then
/// differs from the reference and fails the gate. Returns whether the post
/// was accepted.
bool PostOrCancel(ShardedScheduler& engine, size_t id, Answer answer) {
  if (engine.TryPostAnswer(id, answer).ok()) return true;
  (void)engine.TryCancel(id);
  return false;
}

/// One answer the generator will post once it is due.
struct DueAnswer {
  double due = 0.0;  ///< absolute Now() seconds
  size_t id = 0;
  Answer answer = Answer::kFirst;

  bool operator>(const DueAnswer& other) const {
    return due != other.due ? due > other.due : id > other.id;
  }
};

/// The paced phase's load generator: one thread that posts every answer
/// when it is due (open loop per answer: a late server does not delay the
/// schedule) and records how late it ran and how long each post took.
class Generator {
 public:
  explicit Generator(ShardedScheduler& engine) : engine_(engine) {}
  ~Generator() { Stop(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Schedules an answer; false once Close() ran (the caller then posts it
  /// itself). Thread-safe: called from the shard workers' question sinks.
  bool Push(const DueAnswer& answer) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    heap_.push(answer);
    return true;
  }

  void Start() { thread_ = std::thread(&Generator::Loop, this); }

  /// Stops posting; scheduled answers stay queued.
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  /// Refuses further pushes and hands back every answer still scheduled, in
  /// due order. Call after Stop().
  std::vector<DueAnswer> Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    std::vector<DueAnswer> rest;
    while (!heap_.empty()) {
      rest.push_back(heap_.top());
      heap_.pop();
    }
    return rest;
  }

  // Read after Stop().
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<double>& post_us() const { return post_us_; }
  const std::vector<double>& late_ms() const { return late_ms_; }

 private:
  void Loop() {
    std::vector<DueAnswer> ready;
    while (!stop_.load(std::memory_order_acquire)) {
      double next_due = 0.0;
      const double now = Now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        while (!heap_.empty() && heap_.top().due <= now) {
          ready.push_back(heap_.top());
          heap_.pop();
        }
        next_due = heap_.empty() ? now + 1e-3 : heap_.top().due;
      }
      for (const DueAnswer& a : ready) {
        const double start = Now();
        late_ms_.push_back((start - a.due) * 1e3);
        const bool posted = PostOrCancel(engine_, a.id, a.answer);
        post_us_.push_back((Now() - start) * 1e6);
        ++attempted_;
        if (!posted) ++failed_;
      }
      ready.clear();
      // Sleep until the next answer is due, but never longer than half a
      // millisecond: answers pushed meanwhile are due no earlier than one
      // think time from now.
      const double wake = std::min(next_due, Now() + 5e-4);
      const double wait = wake - Now();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
    }
  }

  ShardedScheduler& engine_;
  std::mutex mu_;
  std::priority_queue<DueAnswer, std::vector<DueAnswer>,
                      std::greater<DueAnswer>>
      heap_;
  bool closed_ = false;
  std::atomic<bool> stop_{false};
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<double> post_us_;
  std::vector<double> late_ms_;
  std::thread thread_;
};

/// Per-user paced-phase state. After the clock starts it is touched only by
/// the worker of the user's shard (both sinks run there).
struct PacedUser {
  Rng think;
  double due = -1.0;  ///< when the outstanding answer was due; -1 = none
  SessionQuestion first;
};

struct PacedStats {
  std::vector<double> rtt_ms;
  size_t timed = 0;      ///< answers posted on schedule (slo_attain's base)
  size_t attempted = 0;  ///< every answer posted, the untimed drain included
  size_t failed = 0;
  std::vector<double> post_us;
  std::vector<double> late_ms;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

ShardedOptions EngineOptions(const Workload& w, size_t shards) {
  ShardedOptions options;
  options.shards = shards;
  options.checkpoint_every_ticks = w.durable ? w.checkpoint_every_ticks : 0;
  return options;
}

/// Admits users [begin, end) into `engine` (local id j = user begin + j),
/// each on its shard's clone.
void Admit(const Setup& setup, const std::vector<SimUser>& users,
           size_t begin, size_t end, ShardedScheduler& engine) {
  const size_t shards = engine.shards();
  for (size_t i = begin; i < end; ++i) {
    InteractiveAlgorithm* clone = setup.clones[(i - begin) % shards].get();
    engine.Add(clone->StartSession(SessionConfigFor(users[i])), clone);
  }
}

/// Takes every finished session's result from `engine` into
/// outcomes[begin + local id].
void Collect(ShardedScheduler& engine, size_t begin,
             std::vector<Outcome>& outcomes, Report& report,
             const char* phase) {
  for (size_t j = 0; j < engine.size(); ++j) {
    Result<InteractionResult> result = engine.TryTake(j);
    if (!result.ok()) {
      report.Check(false, Format("%s: session %zu: %s", phase, begin + j,
                                 result.status().ToString().c_str()));
      continue;
    }
    outcomes[begin + j] = ToOutcome(*result);
  }
}

/// Boundary calls made and failed across the run's phases.
struct Counts {
  size_t attempted = 0;
  size_t failed = 0;
};

/// A question sink that answers at once (zero think time), for saturation
/// and for draining a recovered population. Session id i is users[i]'s.
/// Must outlive serving: declare it before the engine it feeds.
class InlineAnswers {
 public:
  explicit InlineAnswers(SimUser* users) : users_(users) {}

  void Start(ShardedScheduler& engine) {
    engine.Start([this, &engine](size_t id, const SessionQuestion& q) {
      posts_.fetch_add(1, std::memory_order_relaxed);
      const Answer answer = users_[id].oracle.Ask(q.first, q.second);
      if (!PostOrCancel(engine, id, answer)) {
        failures_.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  /// Adds the posts and failed posts; call once serving has stopped.
  void AddTo(Counts& counts) const {
    counts.attempted += posts_.load();
    counts.failed += failures_.load();
  }

 private:
  SimUser* users_;
  std::atomic<size_t> posts_{0};
  std::atomic<size_t> failures_{0};
};

/// One saturation population: users [begin, end) admitted (durable under
/// `prefix` on the durable workload), then answered with zero think time
/// until it drains. Returns the admission + drain wall time in seconds.
double Saturate(const Workload& w, const Setup& setup,
                std::vector<SimUser>& users, size_t begin, size_t end,
                size_t shards, const std::string& prefix,
                std::vector<Outcome>& outcomes, Counts& counts,
                Report& report) {
  InlineAnswers answers(users.data() + begin);
  ShardedScheduler engine(EngineOptions(w, shards));
  const double start = Now();
  Admit(setup, users, begin, end, engine);
  if (w.durable && !prefix.empty()) {
    const Status enabled = engine.EnableDurability(prefix);
    report.Check(enabled.ok(), "saturation: " + enabled.ToString());
  }
  answers.Start(engine);
  const Status drained = engine.WaitUntilDrained();
  const double wall = Now() - start;
  engine.Stop();
  report.Check(drained.ok(), "saturation: " + drained.ToString());
  Collect(engine, begin, outcomes, report, "saturation");
  counts.attempted += end - begin;
  answers.AddTo(counts);
  return wall;
}

/// The paced phase (closed loop with think time). Every session is admitted
/// before Start; each user's first answer is due at its arrival time after
/// the clock starts, each later one a think time after its question arrived.
/// Responses are timed for the answers due within w.window_s. Then durable
/// workloads Stop() (the crash); the others answer every remaining question
/// at once, untimed, until the population drains.
PacedStats RunPaced(const Workload& w, const Setup& setup,
                    std::vector<SimUser>& users,
                    const std::string& prefix, ShardedScheduler& engine,
                    Report& report) {
  PacedStats stats;
  const size_t n = users.size();
  std::vector<PacedUser> paced(n);
  for (size_t i = 0; i < n; ++i) paced[i].think = Rng(users[i].think_seed);
  std::vector<std::vector<double>> rtt(engine.shards());
  for (auto& v : rtt) v.reserve(n * 8 / engine.shards());

  Admit(setup, users, 0, n, engine);
  if (w.durable) {
    const Status enabled = engine.EnableDurability(prefix);
    report.Check(enabled.ok(), "paced: EnableDurability: " + enabled.ToString());
  }
  const size_t expected_firsts = engine.active();

  Generator generator(engine);
  std::atomic<bool> clock_started{false};
  std::atomic<size_t> firsts{0};
  std::atomic<size_t> drain_posts{0};
  std::atomic<size_t> drain_failures{0};
  engine.SetHarvestSink([&](size_t id, const SessionTraceRecord&) {
    const double now = Now();
    PacedUser& u = paced[id];
    if (u.due >= 0.0) {
      rtt[id % rtt.size()].push_back((now - u.due) * 1e3);
      u.due = -1.0;
    }
  });
  engine.Start([&](size_t id, const SessionQuestion& q) {
    const double now = Now();
    PacedUser& u = paced[id];
    if (!clock_started.load(std::memory_order_acquire)) {
      u.first = q;
      firsts.fetch_add(1, std::memory_order_release);
      return;
    }
    if (u.due >= 0.0) rtt[id % rtt.size()].push_back((now - u.due) * 1e3);
    const DueAnswer next{now + DrawThink(u.think, w.think_s), id,
                         users[id].oracle.Ask(q.first, q.second)};
    u.due = next.due;
    if (!generator.Push(next)) {
      // The window has closed: answer at once, untimed.
      u.due = -1.0;
      drain_posts.fetch_add(1, std::memory_order_relaxed);
      if (!PostOrCancel(engine, id, next.answer)) {
        drain_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // First questions go out at Start; the clock starts once every one has
  // reached its user, so no answer is due before the engine could serve it.
  while (firsts.load(std::memory_order_acquire) < expected_firsts) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double t0 = Now();
  for (size_t i = 0; i < n; ++i) {
    if (paced[i].first.first.dim() == 0) continue;  // finished at admission
    paced[i].due = t0 + users[i].arrival_s;
    const SessionQuestion& q = paced[i].first;
    generator.Push(DueAnswer{paced[i].due, i,
                             users[i].oracle.Ask(q.first, q.second)});
  }
  clock_started.store(true, std::memory_order_release);
  generator.Start();

  const double wait = t0 + w.window_s - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  generator.Stop();
  if (w.durable) {
    engine.Stop();  // drains already-queued answers, then joins the workers
    report.Check(engine.error().ok(), "paced: " + engine.error().ToString());
  } else {
    for (const DueAnswer& a : generator.Close()) {
      paced[a.id].due = -1.0;
      drain_posts.fetch_add(1, std::memory_order_relaxed);
      if (!PostOrCancel(engine, a.id, a.answer)) {
        drain_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const Status drained = engine.WaitUntilDrained();
    report.Check(drained.ok(), "paced: " + drained.ToString());
    engine.Stop();
  }

  for (auto& v : rtt) {
    stats.rtt_ms.insert(stats.rtt_ms.end(), v.begin(), v.end());
  }
  stats.timed = generator.attempted();
  stats.attempted = stats.timed + drain_posts.load();
  stats.failed = generator.failed() + drain_failures.load();
  stats.post_us = generator.post_us();
  stats.late_ms = generator.late_ms();
  return stats;
}

}  // namespace

void CheckOutcomes(const Workload& w, const Dataset& skyline,
                   const std::vector<SimUser>& users,
                   const std::vector<Outcome>& outcomes, const char* phase,
                   Report& report) {
  size_t missing = 0;
  size_t aborted = 0;
  size_t regret_violations = 0;
  std::string first_violation;
  for (size_t i = 0; i < outcomes.size() && i < users.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.valid) {
      ++missing;
      continue;
    }
    if (o.termination == Termination::kAborted) ++aborted;
    const Status ok = ValidateReturnedTuple(skyline, o.best_index,
                                            users[i].oracle.utility(),
                                            w.epsilon,
                                            /*exact=*/w.algo == Algo::kEa);
    if (!ok.ok()) {
      if (regret_violations++ == 0) first_violation = ok.ToString();
    }
  }
  report.Check(missing == 0,
               Format("%s: %zu sessions without a result", phase, missing));
  report.Check(aborted == 0,
               Format("%s: %zu sessions aborted", phase, aborted));
  report.Check(regret_violations == 0,
               Format("%s: %zu returned tuples violate the regret bound (%s)",
                      phase, regret_violations, first_violation.c_str()));
}

void CheckIdentical(const std::vector<Outcome>& expected,
                    const std::vector<Outcome>& actual, const char* what,
                    Report& report) {
  const size_t n = std::min(expected.size(), actual.size());
  size_t differ = 0;
  size_t first = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!(expected[i] == actual[i])) {
      if (differ++ == 0) first = i;
    }
  }
  report.Check(differ == 0,
               Format("%s: %zu of %zu sessions differ (first: user %zu)",
                      what, differ, n, first));
}

std::vector<Outcome> RunEndToEnd(const Workload& w, uint64_t seed,
                                 const std::string& tmp_dir, Report& report) {
  // ---- setup, several times; the median is setup_s. ----------------------
  std::vector<double> setup_times;
  Setup setup;
  double setup_total = 0.0;
  while (setup_times.size() < 3 ||
         (setup_total < 1.0 && setup_times.size() < 15)) {
    const double start = Now();
    Setup fresh = BuildSetup(w);
    const double elapsed = Now() - start;
    setup_times.push_back(elapsed);
    setup_total += elapsed;
    if (setup.trained != nullptr) {
      report.Check(fresh.fingerprint == setup.fingerprint,
                   "setup is not deterministic: the Q-network differs "
                   "between two set-ups");
    }
    setup = std::move(fresh);
  }
  const Dataset& sky = *setup.skyline;
  std::vector<SimUser> users = MakeUsers(w, w.users, sky.dim(), seed);
  const size_t n = users.size();
  std::string times;
  for (double t : setup_times) times += Format(" %.3f", t);
  report.Note(Format("%s: skyline %zu x %zu, %zu users, set-ups (s):%s",
                     w.name.c_str(), sky.size(), sky.dim(), n, times.c_str()));

  Counts counts;
  // ---- saturation: population p holds users [bounds[p], bounds[p+1]); the
  // first runs now, the others after the paced phase. Together they give
  // every user's reference outcome.
  std::vector<size_t> bounds;
  for (size_t p = 0; p <= kSaturationPopulations; ++p) {
    bounds.push_back(n * p / kSaturationPopulations);
  }
  std::vector<Outcome> reference(n);
  std::vector<double> saturation_s(kSaturationPopulations, 0.0);
  auto saturate = [&](size_t p) {
    saturation_s[p] = Saturate(w, setup, users, bounds[p], bounds[p + 1],
                               kShards,
                               Format("%s/saturation%zu", tmp_dir.c_str(), p),
                               reference, counts, report);
  };
  saturate(0);

  // ---- paced ---------------------------------------------------------------
  const std::string paced_prefix = tmp_dir + "/paced";
  std::vector<Outcome> served(n);  // paced, or recovered-then-drained
  PacedStats stats;
  double recover_s = 0.0;
  InlineAnswers recovery_answers(users.data());
  {
    auto engine = std::make_unique<ShardedScheduler>(EngineOptions(w, kShards));
    stats = RunPaced(w, setup, users, paced_prefix, *engine, report);
    counts.attempted += n + stats.attempted;
    counts.failed += stats.failed;
    if (!w.durable) {
      Collect(*engine, 0, served, report, "paced");
    } else {
      // ---- crash: the stopped engine is dropped without a checkpoint or a
      // take, as a killed process would be; recovery reads only its files.
      engine.reset();
      const double start = Now();
      Result<std::unique_ptr<ShardedScheduler>> restored =
          ShardedScheduler::Recover(
              EngineOptions(w, kShards), paced_prefix,
              [&](size_t shard, const std::string&) {
                return setup.clones[shard].get();
              });
      report.Check(restored.ok(), "recover: " + restored.status().ToString());
      if (restored.ok()) {
        ShardedScheduler& rec = **restored;
        const Status enabled = rec.EnableDurability(paced_prefix);
        report.Check(enabled.ok(), "recover: " + enabled.ToString());
        // Start() is part of the downtime; the drain that follows is not.
        recovery_answers.Start(rec);
        recover_s = Now() - start;
        const Status drained = rec.WaitUntilDrained();
        report.Check(drained.ok(), "recovered drain: " + drained.ToString());
        rec.Stop();
        recovery_answers.AddTo(counts);
        Collect(rec, 0, served, report, "recovered");
      }
    }
  }

  for (size_t p = 1; p < kSaturationPopulations; ++p) saturate(p);
  double saturation_total_s = 0.0;
  for (double s : saturation_s) saturation_total_s += s;
  const double sessions_per_s = static_cast<double>(n) / saturation_total_s;

  // ---- shard scaling: the first population again, on one shard. ----------
  double shard_speedup = 0.0;
  if (w.shard_scaling) {
    std::vector<Outcome> single(bounds[1]);
    const double one_shard_s = Saturate(w, setup, users, 0, bounds[1], 1, "",
                                        single, counts, report);
    shard_speedup = one_shard_s / saturation_s[0];
    CheckIdentical(reference, single, "one shard vs two shards", report);
  }

  // ---- correctness gate ---------------------------------------------------
  CheckOutcomes(w, sky, users, reference, "saturation", report);
  CheckOutcomes(w, sky, users, served, w.durable ? "recovered" : "paced",
                report);
  CheckIdentical(reference, served,
                 w.durable ? "recovered vs saturation" : "paced vs saturation",
                 report);
  size_t aborted = 0;
  double rounds = 0.0;
  for (const Outcome& o : reference) {
    if (o.termination == Termination::kAborted) ++aborted;
    rounds += static_cast<double>(o.rounds);
  }
  counts.failed += aborted;
  report.CountAttempts(counts.attempted, counts.failed);
  report.Check(counts.failed == 0,
               Format("%zu failed boundary calls or aborted sessions",
                      counts.failed));

  // ---- metrics ------------------------------------------------------------
  size_t within = 0;
  for (double r : stats.rtt_ms) within += r <= w.slo_ms ? 1 : 0;
  report.Metric("setup_s", Median(setup_times), "s");
  report.Metric("rtt_p50_ms", Quantile(stats.rtt_ms, 0.50), "ms");
  // The tail in the JSON result is p90: the AA workloads time about a
  // thousand answers per run, too few for a p99 that repeats within 25%.
  report.Metric("rtt_p90_ms", Quantile(stats.rtt_ms, 0.90), "ms");
  report.Info("rtt_p95_ms", Quantile(stats.rtt_ms, 0.95), "ms");
  report.Info("rtt_p99_ms", Quantile(stats.rtt_ms, 0.99), "ms");
  report.Info("rtt_max_ms", Quantile(stats.rtt_ms, 1.0), "ms");
  report.Info("rtt_samples", static_cast<double>(stats.rtt_ms.size()),
              "count");
  report.Metric("slo_attain",
                stats.timed == 0 ? 0.0
                                 : static_cast<double>(within) /
                                       static_cast<double>(stats.timed),
                "fraction");
  report.Metric("sessions_per_s", sessions_per_s, "1/s");
  report.Metric("rounds_mean", rounds / static_cast<double>(n), "questions");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("error_frac",
              counts.attempted == 0
                  ? 0.0
                  : static_cast<double>(counts.failed) /
                        static_cast<double>(counts.attempted),
              "fraction");
  if (w.durable) report.Info("recover_s", recover_s, "s");
  report.Info("serve.post_us_p99", Quantile(stats.post_us, 0.99), "us");
  report.Info("bench.gen_late_p99_ms", Quantile(stats.late_ms, 0.99), "ms");
  if (shard_speedup > 0.0) {
    report.Info("serve.shard_speedup", shard_speedup, "x");
  }
  if (Quantile(stats.late_ms, 0.99) > 5.0) {
    report.Note("generator ran more than 5 ms late at p99: the host could not "
                "keep the paced schedule, so rtt_* overstate the engine");
  }
  report.Note(Format("%s: outcome digest %016llx over %zu users",
                     w.name.c_str(),
                     static_cast<unsigned long long>(Digest(reference, n)), n));
  return reference;
}

}  // namespace isrl::e2e
