// Figure 8: scatter of Manthan3 vs PedantLite.
//
// Paper shape: incomparable tools — each has exclusive solves (points in
// the opposite timeout gutters). Definition-rich instances favour the
// Pedant approach; learnable underconstrained instances favour Manthan3.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using manthan::engine::EngineKind;
  const auto& records = manthan::bench::bench_records();
  const double timeout = manthan::bench::timeout_marker();

  const auto points = manthan::portfolio::scatter_points(
      records, {EngineKind::kPedantLite}, {EngineKind::kManthan3}, timeout);

  std::cout << "== Figure 8: Manthan3 vs PedantLite ==\n";
  manthan::portfolio::print_scatter(std::cout, "PedantLite", "Manthan3",
                                    points, timeout);
  return 0;
}
