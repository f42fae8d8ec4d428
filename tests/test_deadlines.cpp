// Budget / failure-injection behaviour across the stack: every component
// must degrade to an explicit "unknown/timeout" outcome, never hang or
// return wrong answers, when its deadline expires.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "baselines/hqs_lite.hpp"
#include "baselines/pedant_lite.hpp"
#include "core/manthan3.hpp"
#include "maxsat/maxsat.hpp"
#include "portfolio/runner.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace manthan {
namespace {

using cnf::CnfFormula;
using cnf::Lit;
using cnf::Var;

CnfFormula hard_random_3sat(Var n, std::uint64_t seed) {
  util::Rng rng(seed);
  CnfFormula f(n);
  const auto clauses = static_cast<std::size_t>(4.26 * n);
  for (std::size_t c = 0; c < clauses; ++c) {
    cnf::Clause clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit(static_cast<Var>(rng.next_below(
                               static_cast<std::uint64_t>(n))),
                           rng.flip()));
    }
    f.add_clause(clause);
  }
  return f;
}

TEST(Deadlines, SolverReturnsUnknownNotWrongAnswer) {
  // Phase-transition instance large enough to exceed a microscopic
  // budget; the solver must return kUnknown (or finish legitimately).
  const CnfFormula f = hard_random_3sat(150, 1);
  sat::Solver s;
  s.add_formula(f);
  const util::Deadline deadline(1e-6);
  const sat::Result r = s.solve({}, deadline);
  if (r == sat::Result::kSat) {
    EXPECT_TRUE(f.satisfied_by(s.model()));
  }
  // After an interrupted solve the solver remains usable.
  const sat::Result r2 = s.solve({});
  EXPECT_NE(r2, sat::Result::kUnknown);
}

TEST(Deadlines, PurePropagationSolveHonoursDeadline) {
  // Regression: the deadline used to be polled only on conflicts, so a
  // conflict-free solve (pure unit propagation) ran to completion no
  // matter how tight the budget. Implication chains rooted in unit
  // clauses produce tens of thousands of propagations and zero
  // conflicts; with an already-expired deadline the solver must now
  // return kUnknown instead of kSat.
  sat::Solver s;
  const int chains = 10;
  const int length = 1000;
  for (int c = 0; c < chains; ++c) {
    const Var base = static_cast<Var>(c * length);
    for (int i = 0; i + 1 < length; ++i) {
      s.add_clause({cnf::neg(base + i), cnf::pos(base + i + 1)});
    }
  }
  for (int c = 0; c < chains; ++c) {
    s.add_clause({cnf::pos(static_cast<Var>(c * length))});
  }
  const util::Deadline deadline(1e-9);
  EXPECT_EQ(s.solve({}, deadline), sat::Result::kUnknown);
  // Without a deadline the same solver finishes and the model is total.
  EXPECT_EQ(s.solve({}), sat::Result::kSat);
}

TEST(Deadlines, MaxSatHonoursDeadline) {
  maxsat::MaxSatSolver ms;
  const CnfFormula f = hard_random_3sat(120, 3);
  ms.add_hard_formula(f);
  for (Var v = 0; v < 40; ++v) ms.add_soft({cnf::pos(v)});
  const util::Deadline deadline(1e-6);
  const maxsat::MaxSatStatus status = ms.solve(&deadline);
  EXPECT_TRUE(status == maxsat::MaxSatStatus::kUnknown ||
              status == maxsat::MaxSatStatus::kOptimal ||
              status == maxsat::MaxSatStatus::kUnsatisfiableHard);
}

TEST(Deadlines, EnginesReportTimeoutStatus) {
  const dqbf::DqbfFormula f =
      testutil::hard_planted(99);
  {
    core::Manthan3Options options;
    options.time_limit_seconds = 1e-5;
    core::Manthan3 engine(options);
    aig::Aig manager;
    const auto result = engine.synthesize(f, manager);
    EXPECT_TRUE(result.status == core::SynthesisStatus::kTimeout ||
                result.status == core::SynthesisStatus::kRealizable);
  }
  {
    baselines::HqsLiteOptions options;
    options.time_limit_seconds = 1e-5;
    baselines::HqsLite engine(options);
    aig::Aig manager;
    const auto result = engine.synthesize(f, manager);
    EXPECT_NE(result.status, core::SynthesisStatus::kUnrealizable);
  }
  {
    baselines::PedantLiteOptions options;
    options.time_limit_seconds = 1e-5;
    baselines::PedantLite engine(options);
    aig::Aig manager;
    const auto result = engine.synthesize(f, manager);
    EXPECT_NE(result.status, core::SynthesisStatus::kUnrealizable);
  }
}

TEST(Deadlines, RunnerRecordsTimeoutsAsUnsolved) {
  workloads::Instance instance;
  instance.name = "hard";
  instance.family = "test";
  instance.formula = testutil::hard_planted(7);
  portfolio::RunnerOptions options;
  options.per_instance_seconds = 1e-5;
  portfolio::Runner runner(options);
  const portfolio::RunRecord record =
      runner.run_one(instance, engine::EngineKind::kManthan3);
  if (record.status != core::SynthesisStatus::kRealizable) {
    EXPECT_FALSE(record.solved());
  }
}

TEST(Deadlines, EngineLimitsAreReportedDistinctly) {
  // HqsLite expansion cap yields kLimit, not timeout or a wrong verdict.
  const dqbf::DqbfFormula f = workloads::gen_xor_chain({10, false, 1});
  baselines::HqsLiteOptions options;
  options.max_expansion_vars = 3;
  baselines::HqsLite engine(options);
  aig::Aig manager;
  EXPECT_EQ(engine.synthesize(f, manager).status,
            core::SynthesisStatus::kLimit);
}

TEST(Deadlines, ManthanRepairLimitIsReported) {
  core::Manthan3Options options;
  options.max_repair_iterations = 1;
  options.max_counterexamples = 1;
  options.time_limit_seconds = 10.0;
  // XOR-with-shared usually needs more than one repair round.
  const dqbf::DqbfFormula f = workloads::gen_xor_chain({2, true, 5});
  core::Manthan3 engine(options);
  aig::Aig manager;
  const auto result = engine.synthesize(f, manager);
  EXPECT_TRUE(result.status == core::SynthesisStatus::kLimit ||
              result.status == core::SynthesisStatus::kIncomplete ||
              result.status == core::SynthesisStatus::kRealizable);
}

}  // namespace
}  // namespace manthan
