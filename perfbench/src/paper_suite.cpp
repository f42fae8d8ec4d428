// paper_suite: Manthan3 on every instance of workloads::standard_suite,
// serially through portfolio::Runner::run_one — the paper's method of
// counting certified solves over the generated competition families.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "host_speed.hpp"
#include "dqbf/certificate.hpp"
#include "engine/engine.hpp"
#include "obs/trace.hpp"
#include "portfolio/runner.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

using namespace manthan;

/// One suite at scale 1 (50 instances) takes about this long on a 4-core
/// x86 host; it sizes the number of suite seeds in a pass.
constexpr double kSecondsPerSuite = 0.6;
constexpr std::uint64_t kSuiteSalt = 0x7061706572ULL;   // "paper"
constexpr std::uint64_t kRunnerSalt = 0x72756e6e6572ULL;  // "runner"

class PaperSuite final : public Workload {
 public:
  PaperSuite(std::uint64_t seed, double work)
      : seed_(seed),
        suites_(static_cast<std::size_t>(
            std::max(1.0, std::round(work / kSecondsPerSuite)))) {
    portfolio::RunnerOptions options;
    options.per_instance_seconds = kWallCapSeconds;
    options.manthan3 = manthan3_options();
    options.seed = util::derive_seed(seed_, kRunnerSalt);
    runner_options_ = options;
  }

  double setup() override {
    const Clock::time_point start = Clock::now();
    instances_.clear();
    for (std::size_t i = 0; i < suites_; ++i) {
      std::vector<workloads::Instance> suite = workloads::standard_suite(
          {1, util::derive_seed(seed_, kSuiteSalt, i)});
      for (workloads::Instance& instance : suite) {
        instances_.push_back(std::move(instance));
      }
    }
    return seconds_since(start);
  }

  Pass run() override {
    const portfolio::Runner runner(runner_options_);
    Pass pass;
    pass.outcomes.reserve(instances_.size());
    records_.clear();
    records_.reserve(instances_.size());
    const Clock::time_point start = Clock::now();
    SpeedMeter meter;
    double reference_s = 0.0;
    for (const workloads::Instance& instance : instances_) {
      reference_s += meter.poll();
      const Clock::time_point begin = Clock::now();
      {
        obs::Span span("portfolio.run_one", "bench");
        records_.push_back(
            runner.run_one(instance, engine::EngineKind::kManthan3));
      }
      const portfolio::RunRecord& record = records_.back();
      Outcome outcome;
      outcome.latency_s = seconds_since(begin);
      outcome.status = record.status;
      outcome.solved = record.solved();
      outcome.counterexamples = record.stats.counterexamples;
      outcome.repairs = record.stats.repairs;
      classify(outcome, record.certified, instance.family);
      pass.engine.add(record.status, record.stats);
      pass.outcomes.push_back(std::move(outcome));
    }
    pass.wall_s = seconds_since(start) - reference_s;
    meter.sample();
    pass.speed = meter.take();
    pass.reference_solve_s = meter.medians().solve_s;
    pass.reference_walk_s = meter.medians().walk_s;
    return pass;
  }

  // run_one certifies internally but returns no vector, so the check
  // replays each realizable run with run_one's own seed derivation (the
  // engine is deterministic at a fixed seed), requires the same verdict
  // and effort, and certifies the replayed vector independently. Replays
  // are independent, so they fan out over the cores.
  void check(Pass& pass) override {
    std::atomic<std::size_t> next{0};
    const auto replay_all = [&]() {
      for (std::size_t i = next++; i < records_.size(); i = next++) {
        try {
          replay(i, pass.outcomes[i]);
        } catch (const std::exception& e) {
          mark_failed(pass.outcomes[i],
                      std::string("replay threw: ") + e.what());
        }
      }
    };
    std::vector<std::thread> threads;
    const std::size_t n =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    for (std::size_t t = 0; t < n; ++t) threads.emplace_back(replay_all);
    for (std::thread& thread : threads) thread.join();
  }

  void rewind() override {}

  void traced_extras() override {}

  std::map<std::string, std::string> describe() const override {
    return {{"suites", std::to_string(suites_)},
            {"instances", std::to_string(instances_.size())},
            {"engine", engine::engine_name(engine::EngineKind::kManthan3)},
            {"max_counterexamples",
             std::to_string(runner_options_.manthan3.max_counterexamples)},
            {"max_repair_iterations",
             std::to_string(runner_options_.manthan3.max_repair_iterations)}};
  }

 private:
  void replay(std::size_t i, Outcome& outcome) const {
    const portfolio::RunRecord& record = records_[i];
    if (record.status != core::SynthesisStatus::kRealizable) return;
    const workloads::Instance& instance = instances_[i];
    engine::EngineOptions options;
    options.time_limit_seconds = kWallCapSeconds;
    options.seed = util::derive_seed(
        runner_options_.seed, util::hash64(instance.name),
        static_cast<std::uint64_t>(engine::EngineKind::kManthan3));
    options.manthan3 = runner_options_.manthan3;
    aig::Aig manager;
    const core::SynthesisResult replayed = engine::run_engine(
        instance.formula, manager, engine::EngineKind::kManthan3, options);
    if (replayed.status != record.status ||
        replayed.stats.counterexamples != record.stats.counterexamples ||
        replayed.stats.repairs != record.stats.repairs) {
      mark_failed(outcome, "replay diverged on " + instance.name);
      return;
    }
    const dqbf::CertificateResult cert =
        dqbf::check_certificate(instance.formula, manager, replayed.vector);
    if (cert.status != dqbf::CertificateStatus::kValid) {
      mark_failed(outcome, "certificate rejected on " + instance.name);
    }
  }

  std::uint64_t seed_;
  std::size_t suites_;
  portfolio::RunnerOptions runner_options_;
  std::vector<workloads::Instance> instances_;
  std::vector<portfolio::RunRecord> records_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_suite(std::uint64_t seed, double work) {
  return std::make_unique<PaperSuite>(seed, work);
}

}  // namespace perfbench
