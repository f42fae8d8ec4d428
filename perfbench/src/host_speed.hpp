// Host speed index. The benchmark runs on a few cores of a shared host
// whose speed drifts by 20-30% within minutes, even at a fixed CPU share:
// neighbours on the sibling hyperthreads and in the shared caches slow
// the library's code down. Two frozen reference kernels of this package,
// independent of the library, are timed between operations: a small DPLL
// solve (the core's speed on branchy SAT code) and a random walk over
// 1.5 MB (latency to the caches beyond L1). Each end-to-end time is
// scaled by the interval's speed factor, the product over both kernels
// of reference time / median time. The library's code slows down about
// as much as the two kernels together: over 21 passes of seed-1
// paper_suite, the pass time's coefficient of variation was 8.2%
// unscaled, 3.6% scaled by the DPLL kernel alone and 2.4% scaled by the
// product. A change to the library moves the scaled times; a change of
// host speed moves the kernels as well and mostly cancels out.
#pragma once

#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Median kernel times on the calibration host (a 4-vCPU KVM Xeon with
/// AVX-512, at a quiet moment). Scaled times read as seconds on that
/// host.
constexpr double kReferenceSolveSeconds = 1.3e-3;
constexpr double kReferenceWalkSeconds = 1.35e-3;

class SpeedMeter {
 public:
  struct Sample {
    double solve_s = 0.0;
    double walk_s = 0.0;
  };

  /// Times both kernels once if the last time is at least 100 ms old.
  /// Returns the seconds spent, which the caller keeps out of its timings.
  double poll();
  /// Times both kernels once now; returns the seconds spent.
  double sample();
  /// The speed factor of the interval since the previous take(), which
  /// starts a new interval: the product over both kernels of reference
  /// time / median time. 1 if there were no samples.
  double take();
  /// Median kernel times of the interval ended by the last take().
  const Sample& medians() const { return medians_; }

 private:
  std::vector<double> solve_s_;
  std::vector<double> walk_s_;
  Clock::time_point last_sample_{};
  Sample medians_;
};

}  // namespace perfbench
