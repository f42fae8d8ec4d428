// Constrained sampler: all samples are models, diversity, adaptive bias,
// and UNSAT handling.
#include <gtest/gtest.h>

#include <set>

#include "cnf/cnf.hpp"
#include "sampler/sampler.hpp"

namespace manthan::sampler {
namespace {

using cnf::neg;
using cnf::pos;

TEST(Sampler, AllSamplesSatisfyFormula) {
  CnfFormula f(6);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({neg(2), pos(3)});
  f.add_clause({pos(4), neg(5), pos(0)});
  SamplerOptions options;
  options.num_samples = 100;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {});
  ASSERT_FALSE(samples.empty());
  for (const Assignment& a : samples) EXPECT_TRUE(f.satisfied_by(a));
}

TEST(Sampler, UnsatFormulaYieldsNoSamples) {
  CnfFormula f(1);
  f.add_clause({pos(0)});
  f.add_clause({neg(0)});
  Sampler sampler;
  EXPECT_TRUE(sampler.sample(f, {}).empty());
}

TEST(Sampler, ProducesDiverseModels) {
  // 8 unconstrained variables: expect to see many distinct assignments.
  CnfFormula f(8);
  f.add_clause({pos(0), neg(0)});
  SamplerOptions options;
  options.num_samples = 64;
  options.adaptive = false;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {});
  std::set<std::vector<bool>> distinct;
  for (const Assignment& a : samples) distinct.insert(a.bits());
  EXPECT_GT(distinct.size(), 20u);
}

TEST(Sampler, CoversBothPolaritiesOfFreeVariable) {
  CnfFormula f(4);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  options.num_samples = 60;
  options.adaptive = false;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {});
  int true_count = 0;
  for (const Assignment& a : samples) {
    if (a.value(cnf::Var{3})) ++true_count;
  }
  EXPECT_GT(true_count, 0);
  EXPECT_LT(true_count, static_cast<int>(samples.size()));
}

TEST(Sampler, AdaptiveBiasFollowsSkew) {
  // y (var 8) equals x0 | x1; six further free variables keep the model
  // count high. Models mostly have y = 1, and the adaptive stage should
  // not *reduce* coverage of the skewed value.
  CnfFormula f(9);
  f.add_clause({neg(8), pos(0), pos(1)});
  f.add_clause({pos(8), neg(0)});
  f.add_clause({pos(8), neg(1)});
  SamplerOptions options;
  options.num_samples = 200;
  options.adaptive = true;
  options.probe_samples = 40;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {8});
  ASSERT_GT(samples.size(), 50u);
  std::size_t y_true = 0;
  for (const Assignment& a : samples) {
    EXPECT_TRUE(f.satisfied_by(a));
    if (a.value(cnf::Var{8})) ++y_true;
  }
  // 3 of 4 (x0,x1) combinations force y=1.
  EXPECT_GT(y_true * 2, samples.size());
}

TEST(Sampler, SamplesArePairwiseDistinct) {
  // Only 4 models exist ((x0,x1) free, y = x0 | x1): requesting far more
  // must return each model at most once instead of repeats.
  CnfFormula f(3);
  f.add_clause({neg(2), pos(0), pos(1)});
  f.add_clause({pos(2), neg(0)});
  f.add_clause({pos(2), neg(1)});
  SamplerOptions options;
  options.num_samples = 64;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {2});
  ASSERT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), 4u);
  std::set<std::vector<bool>> distinct;
  for (const Assignment& a : samples) {
    EXPECT_TRUE(f.satisfied_by(a));
    EXPECT_TRUE(distinct.insert(a.bits()).second)
        << "duplicate model returned";
  }
}

TEST(Sampler, DistinctSamplesAcrossProbeAndMainRounds) {
  // Adaptive mode draws in two rounds (probe + biased main) with
  // different solvers; dedup must span both.
  CnfFormula f(10);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  options.num_samples = 120;
  options.adaptive = true;
  options.probe_samples = 16;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {0, 1});
  ASSERT_GT(samples.size(), 16u);  // main round actually topped up
  std::set<std::vector<bool>> distinct;
  for (const Assignment& a : samples) distinct.insert(a.bits());
  EXPECT_EQ(distinct.size(), samples.size());
}

TEST(Sampler, RespectsSampleBudget) {
  CnfFormula f(5);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  options.num_samples = 17;
  Sampler sampler(options);
  EXPECT_LE(sampler.sample(f, {}).size(), 17u);
}

TEST(Sampler, DeterministicForSeed) {
  CnfFormula f(6);
  f.add_clause({pos(0), pos(1), pos(2)});
  SamplerOptions options;
  options.num_samples = 30;
  options.seed = 99;
  Sampler a(options);
  Sampler b(options);
  const auto sa = a.sample(f, {0, 1});
  const auto sb = b.sample(f, {0, 1});
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].bits(), sb[i].bits());
  }
}

// --- the enumerating session ------------------------------------------------
// These properties were first checked against a one-solve-per-model draw
// loop; the thresholds are the ones that loop met.

TEST(SamplerEnumerate, ModelsValidAndPairwiseDistinct) {
  CnfFormula f(12);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({neg(2), pos(3)});
  f.add_clause({pos(4), neg(5), pos(0)});
  SamplerOptions options;
  options.num_samples = 300;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {0, 2});
  ASSERT_GT(samples.size(), 200u);
  std::set<std::vector<bool>> distinct;
  for (const Assignment& a : samples) {
    EXPECT_TRUE(f.satisfied_by(a));
    EXPECT_TRUE(distinct.insert(a.bits()).second) << "duplicate model";
  }
}

TEST(SamplerEnumerate, CoversBothPolaritiesOfFreeVariables) {
  // 8 free variables, unbiased polarities: the session must cover both
  // polarities of every variable at a healthy rate, not collapse onto a
  // corner of the model space.
  CnfFormula f(8);
  f.add_clause({pos(0), neg(0)});
  SamplerOptions options;
  options.num_samples = 200;
  options.adaptive = false;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {});
  ASSERT_GT(samples.size(), 100u);
  for (cnf::Var v = 0; v < 8; ++v) {
    std::size_t trues = 0;
    for (const Assignment& a : samples) {
      if (a.value(v)) ++trues;
    }
    const double fraction =
        static_cast<double>(trues) / static_cast<double>(samples.size());
    EXPECT_GT(fraction, 0.25) << "var " << v;
    EXPECT_LT(fraction, 0.75) << "var " << v;
  }
}

TEST(SamplerEnumerate, ExhaustsSmallModelSpaces) {
  // Only 4 models exist; the session must find all of them (and stop).
  CnfFormula f(3);
  f.add_clause({neg(2), pos(0), pos(1)});
  f.add_clause({pos(2), neg(0)});
  f.add_clause({pos(2), neg(1)});
  SamplerOptions options;
  options.num_samples = 64;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {2});
  EXPECT_EQ(samples.size(), 4u);
}

TEST(SamplerEnumerate, PackedMatrixAgreesWithRowUnpackedView) {
  CnfFormula f(9);
  f.add_clause({pos(0), pos(4)});
  f.add_clause({neg(1), pos(5)});
  SamplerOptions options;
  options.num_samples = 120;
  Sampler packed_sampler(options);
  const cnf::SampleMatrix matrix = packed_sampler.sample_packed(f, {0, 1});
  Sampler row_sampler(options);
  const std::vector<Assignment> rows = row_sampler.sample(f, {0, 1});
  ASSERT_EQ(matrix.num_samples(), rows.size());
  for (std::size_t s = 0; s < rows.size(); ++s) {
    EXPECT_EQ(matrix.row(s), rows[s]) << "sample " << s;
  }
}

TEST(SamplerEnumerate, DeterministicForSeed) {
  CnfFormula f(10);
  f.add_clause({pos(0), pos(1), pos(2)});
  SamplerOptions options;
  options.num_samples = 50;
  options.seed = 123;
  Sampler a(options);
  Sampler b(options);
  const auto sa = a.sample(f, {0, 1});
  const auto sb = b.sample(f, {0, 1});
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].bits(), sb[i].bits());
  }
}

TEST(SamplerEnumerate, UnsatYieldsEmptyMatrix) {
  CnfFormula f(2);
  f.add_clause({pos(0)});
  f.add_clause({neg(0)});
  Sampler sampler;
  EXPECT_TRUE(sampler.sample_packed(f, {}).empty());
}

TEST(Sampler, ExpiredDeadlineShortCircuitsBeforeMainRound) {
  // The fix under test: a deadline that expires during the probe round
  // must return the probe data directly instead of spinning up the
  // main-round solver (whose draw would immediately abandon).
  CnfFormula f(10);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  options.num_samples = 100000000;
  options.probe_samples = 100000000;  // probe absorbs the whole budget
  options.adaptive = true;
  Sampler sampler(options);
  const util::Deadline deadline(0.05);
  const auto samples = sampler.sample(f, {0}, &deadline);
  EXPECT_TRUE(deadline.expired());
  EXPECT_FALSE(samples.empty());
  EXPECT_FALSE(sampler.stats().main_round)
      << "main-round draw ran after deadline expiry";
  EXPECT_EQ(sampler.stats().main_samples, 0u);
}

TEST(Sampler, DeadlineReturnsPartialData) {
  CnfFormula f(10);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  // A fast solver draws ~100k trivial models in under 50ms, so the request
  // must exceed any plausible machine speed for the deadline to bind.
  options.num_samples = 100000000;
  Sampler sampler(options);
  const util::Deadline deadline(0.05);
  const auto samples = sampler.sample(f, {}, &deadline);
  EXPECT_TRUE(deadline.expired());
  EXPECT_LT(samples.size(), options.num_samples);
  EXPECT_FALSE(samples.empty());
}

}  // namespace
}  // namespace manthan::sampler
