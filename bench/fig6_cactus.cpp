// Figure 6: cactus plot of VBS(HqsLite, PedantLite) vs VBS(+Manthan3).
//
// Paper shape: the portfolio *with* Manthan3 solves strictly more
// instances (204 vs 178 on QBFEval; here on the generated suite), because
// Manthan3 synthesizes vectors on instances both baselines miss.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using manthan::engine::EngineKind;
  const auto& records = manthan::bench::bench_records();

  const std::vector<double> vbs_baselines =
      manthan::portfolio::vbs_cactus_series(
          records, {EngineKind::kHqsLite, EngineKind::kPedantLite});
  const std::vector<double> vbs_all = manthan::portfolio::vbs_cactus_series(
      records, {EngineKind::kManthan3, EngineKind::kHqsLite,
                EngineKind::kPedantLite});

  std::cout << "== Figure 6: Virtual Best Synthesizer with/without "
               "Manthan3 ==\n";
  std::cout << "suite: " << manthan::bench::bench_suite().size()
            << " instances, budget " << manthan::bench::env_budget()
            << " s/instance/engine\n";
  manthan::portfolio::print_cactus(std::cout, {"VBS", "VBS+Manthan3"},
                                   {vbs_baselines, vbs_all});
  std::cout << "paper shape check: VBS+Manthan3 total ("
            << vbs_all.size() << ") >= VBS total (" << vbs_baselines.size()
            << ") with a strict improvement expected: "
            << (vbs_all.size() > vbs_baselines.size() ? "YES" : "no")
            << "\n";
  return 0;
}
