// Component micro-benchmark: BDD engine throughput — CNF conjunction
// builds, quantification, and composition on structured formulas, plus
// the UNIQUE step of Manthan3 on the suite instances that exercise it.
#include <benchmark/benchmark.h>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"
#include "bench_common.hpp"
#include "cnf/cnf.hpp"
#include "core/unique_def.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using manthan::bdd::Bdd;
using manthan::bdd::NodeId;
using manthan::cnf::CnfFormula;
using manthan::cnf::Lit;
using manthan::cnf::Var;

CnfFormula chained_constraints(Var n, std::uint64_t seed) {
  manthan::util::Rng rng(seed);
  CnfFormula f(n);
  for (Var v = 0; v + 2 < n; ++v) {
    // (v or v+1 or ~v+2) style local clauses: tractable BDDs.
    f.add_clause({Lit(v, rng.flip()), Lit(v + 1, rng.flip()),
                  Lit(v + 2, rng.flip())});
  }
  return f;
}

void BM_BddFromCnf(benchmark::State& state) {
  const CnfFormula f =
      chained_constraints(static_cast<Var>(state.range(0)), 3);
  for (auto _ : state) {
    Bdd b;
    benchmark::DoNotOptimize(b.from_cnf(f));
  }
}
BENCHMARK(BM_BddFromCnf)->Arg(16)->Arg(32)->Arg(64);

void BM_BddExists(benchmark::State& state) {
  const Var n = static_cast<Var>(state.range(0));
  const CnfFormula f = chained_constraints(n, 5);
  Bdd b;
  const NodeId root = b.from_cnf(f);
  std::vector<std::int32_t> half;
  for (Var v = 0; v < n; v += 2) half.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.exists(root, half));
  }
}
BENCHMARK(BM_BddExists)->Arg(16)->Arg(32)->Arg(64);

void BM_BddCompose(benchmark::State& state) {
  const Var n = static_cast<Var>(state.range(0));
  const CnfFormula f = chained_constraints(n, 7);
  Bdd b;
  const NodeId root = b.from_cnf(f);
  const NodeId g = b.xor_op(b.var_node(1), b.var_node(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.compose(root, 0, g));
  }
}
BENCHMARK(BM_BddCompose)->Arg(16)->Arg(32);

void BM_BddSatCount(benchmark::State& state) {
  const Var n = 32;
  const CnfFormula f = chained_constraints(n, 9);
  Bdd b;
  const NodeId root = b.from_cnf(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.sat_count(root, static_cast<std::size_t>(n)));
  }
}
BENCHMARK(BM_BddSatCount);

// Definition extraction as Manthan3 runs it before learning: the matrix
// BDD build plus def_i = (exists V \ (H_i u {y_i}) phi)|y_i=1 for every
// uniquely defined output, over the controller and pec instances of one
// standard_suite (the families where the step does real work). The Padoa
// checks that pick the defined outputs run once, outside the timed loop.
void BM_UniqueDefExtract(benchmark::State& state) {
  using manthan::core::UniqueDefExtractor;
  struct Job {
    manthan::dqbf::DqbfFormula formula;
    std::vector<std::size_t> defined;
  };
  std::vector<Job> jobs;
  for (auto& instance : manthan::workloads::standard_suite({1, 2023})) {
    if (instance.family != "controller" && instance.family != "pec") continue;
    Job job{std::move(instance.formula), {}};
    UniqueDefExtractor padoa(job.formula);
    for (std::size_t i = 0; i < job.formula.existentials().size(); ++i) {
      if (padoa.is_defined(i) == UniqueDefExtractor::Defined::kYes) {
        job.defined.push_back(i);
      }
    }
    jobs.push_back(std::move(job));
  }
  std::size_t extracted = 0;
  for (auto _ : state) {
    for (const Job& job : jobs) {
      manthan::aig::Aig manager;
      UniqueDefExtractor unique(job.formula);
      for (const std::size_t i : job.defined) {
        extracted += unique.extract(i, manager).has_value() ? 1 : 0;
      }
    }
  }
  state.counters["instances"] = static_cast<double>(jobs.size());
  state.counters["extracted"] = benchmark::Counter(
      static_cast<double>(extracted), benchmark::Counter::kAvgIterations);
  manthan::bench::report_memory_counters(state);
  manthan::bench::report_simd_tier(state);
}
BENCHMARK(BM_UniqueDefExtract)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
