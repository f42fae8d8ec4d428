// Figure 10: scatter of PedantLite vs HqsLite.
//
// Paper shape: even among the existing tools there is no dominant one —
// they solve similar counts but different classes of instances.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using manthan::engine::EngineKind;
  const auto& records = manthan::bench::bench_records();
  const double timeout = manthan::bench::timeout_marker();

  const auto points = manthan::portfolio::scatter_points(
      records, {EngineKind::kHqsLite}, {EngineKind::kPedantLite}, timeout);

  std::cout << "== Figure 10: PedantLite vs HqsLite ==\n";
  manthan::portfolio::print_scatter(std::cout, "HqsLite", "PedantLite",
                                    points, timeout);
  return 0;
}
