// Figure 9: scatter of Manthan3 vs HqsLite.
//
// Paper shape: incomparable tools — elimination wins when the non-linear
// (expanded) part is small, and fails where expansion blows up; Manthan3
// is insensitive to that structure but pays for sampling and repair.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using manthan::engine::EngineKind;
  const auto& records = manthan::bench::bench_records();
  const double timeout = manthan::bench::timeout_marker();

  const auto points = manthan::portfolio::scatter_points(
      records, {EngineKind::kHqsLite}, {EngineKind::kManthan3}, timeout);

  std::cout << "== Figure 9: Manthan3 vs HqsLite ==\n";
  manthan::portfolio::print_scatter(std::cout, "HqsLite", "Manthan3",
                                    points, timeout);
  return 0;
}
