// Table B: per-family breakdown — instance structure metrics and solved
// counts per engine.
//
// Supports the paper's orthogonality narrative quantitatively: the
// elimination engine tracks the non-linear universal count, the
// definition engine tracks unique-definedness-rich families, and Manthan3
// covers the learnable middle.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "dqbf/stats.hpp"

int main() {
  using manthan::engine::EngineKind;
  const auto& suite = manthan::bench::bench_suite();
  const auto& records = manthan::bench::bench_records();

  // Aggregate structure per family.
  struct FamilyAgg {
    std::size_t instances = 0;
    manthan::dqbf::InstanceStats sums;
    std::map<EngineKind, std::size_t> solved;
  };
  std::map<std::string, FamilyAgg> families;
  for (const auto& instance : suite) {
    FamilyAgg& agg = families[instance.family];
    ++agg.instances;
    const auto s = manthan::dqbf::compute_stats(instance.formula);
    agg.sums.num_universals += s.num_universals;
    agg.sums.num_existentials += s.num_existentials;
    agg.sums.num_clauses += s.num_clauses;
    agg.sums.nonlinear_universals += s.nonlinear_universals;
    agg.sums.incomparable_pairs += s.incomparable_pairs;
    agg.sums.subset_pairs += s.subset_pairs;
  }
  for (const auto& r : records) {
    if (r.solved()) {
      // Family lookup via the record's own field.
      ++families[r.family].solved[r.engine];
    }
  }

  std::cout << "== Table B: per-family structure and solved counts ==\n";
  std::cout << "family          inst   avg|X|  avg|Y|  avgCls  avgNonlin"
               "  avgIncomp   M3  HQS  PED\n";
  for (const auto& [name, agg] : families) {
    const double n = static_cast<double>(agg.instances);
    std::printf(
        "%-15s %4zu %8.1f %7.1f %7.1f %10.1f %10.1f %4zu %4zu %4zu\n",
        name.c_str(), agg.instances,
        static_cast<double>(agg.sums.num_universals) / n,
        static_cast<double>(agg.sums.num_existentials) / n,
        static_cast<double>(agg.sums.num_clauses) / n,
        static_cast<double>(agg.sums.nonlinear_universals) / n,
        static_cast<double>(agg.sums.incomparable_pairs) / n,
        agg.solved.count(EngineKind::kManthan3)
            ? agg.solved.at(EngineKind::kManthan3)
            : 0,
        agg.solved.count(EngineKind::kHqsLite)
            ? agg.solved.at(EngineKind::kHqsLite)
            : 0,
        agg.solved.count(EngineKind::kPedantLite)
            ? agg.solved.at(EngineKind::kPedantLite)
            : 0);
  }

  std::cout << "\nper-instance structure detail:\n";
  manthan::dqbf::print_stats_header(std::cout);
  for (const auto& instance : suite) {
    manthan::dqbf::print_stats_row(
        std::cout, instance.name,
        manthan::dqbf::compute_stats(instance.formula));
  }
  return 0;
}
