// Shared pieces of the benchmark binary: per-operation
// outcomes, the determinism digest and the workload interface.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/manthan3.hpp"

namespace perfbench {

namespace core = manthan::core;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall-clock cap per engine run. Every run stops on Manthan3's
/// deterministic limits long before this; a run that reaches it is a
/// failure, so no measured verdict depends on the clock.
constexpr double kWallCapSeconds = 20.0;

/// Manthan3 options used by every workload. The deterministic limits are
/// lowered from the library defaults (2000 counterexamples / 20000
/// repair checks) to 50 / 500. At the defaults a handful of runs that end
/// on the limit (0.5-6 s each) make up most of a suite's wall time, so a
/// suite takes ~5.6 s and its time swings by ~45% between suite seeds;
/// at 50 / 500 it takes ~0.7 s and swings by ~14%. The solved set barely
/// moves: over 800 instances (suite seeds 500-515) the defaults solve
/// 484 and these limits 483 — the one loss needed 1130 counterexamples,
/// every other solve at most 15.
core::Manthan3Options manthan3_options();

/// FNV-1a over the deterministic fields of a pass: equal digests mean
/// equal verdicts and equal search effort, operation by operation.
class Digest {
 public:
  void add(std::string_view text);
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// One measured operation: an instance run or a service request.
struct Outcome {
  core::SynthesisStatus status = core::SynthesisStatus::kInternalError;
  /// Answered from the service's tier-1 cache (no engine run).
  bool cache_hit = false;
  /// Certified Henkin vector.
  bool solved = false;
  /// Wrong answer, wall cap, internal error or out of budget.
  bool failed = false;
  std::string failure;
  double latency_s = 0.0;
  std::size_t counterexamples = 0;
  std::size_t repairs = 0;
};

/// Per-layer counters summed over the engine runs of a pass (cache hits
/// carry the stats of the run that filled the cache and are skipped).
struct EngineTotals {
  std::size_t runs = 0;
  std::size_t samples = 0;
  std::size_t counterexamples = 0;
  std::size_t repairs = 0;
  std::size_t repair_checks = 0;
  std::size_t maxsat_calls = 0;
  std::size_t refit_candidates = 0;
  std::size_t samples_appended = 0;
  std::size_t cones_encoded = 0;
  std::size_t cones_reused = 0;
  std::size_t incomplete = 0;
  std::size_t limit = 0;
  std::uint64_t sample_matrix_peak_bytes = 0;

  void add(core::SynthesisStatus status, const core::SynthesisStats& stats);
};

struct Pass {
  std::vector<Outcome> outcomes;
  /// Unscaled. paper_suite keeps the speed kernels' time out of it.
  double wall_s = 0.0;
  /// Host speed factor over the pass (host_speed.hpp): the pass's times
  /// scaled by it read as seconds on the calibration host.
  double speed = 1.0;
  /// Median reference kernel times over the pass.
  double reference_solve_s = 0.0;
  double reference_walk_s = 0.0;
  /// Service worker threads (0 when no service runs).
  std::size_t workers = 0;
  EngineTotals engine;
  /// Workload-specific per-layer values (engine.*, aig.* ...), by metric
  /// name; merged into the traced report.
  std::map<std::string, double> layer;
};

/// Mark an outcome failed; the first reason is kept.
void mark_failed(Outcome& outcome, const std::string& reason);

/// The failure rules that need no re-verification: the wall cap, internal
/// errors, tripped budgets and cancellations, a realizable verdict
/// without a certificate, an unrealizable verdict on a True family.
void classify(Outcome& outcome, bool certified, const std::string& family);

/// A workload: set-up builds its inputs from the seed (timed as
/// setup_s), run() makes one timed pass, check() re-verifies every answer
/// of the last pass outside the timed region and marks wrong ones failed.
/// A run makes several passes over the same inputs; rewind() (untimed)
/// restores the state the first pass started from.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Returns the seconds spent in workload generation (workloads::).
  virtual double setup() = 0;
  virtual Pass run() = 0;
  virtual void check(Pass& pass) = 0;
  virtual void rewind() = 0;
  /// Called after the traced pass, while tracing is still on: per-layer
  /// work the benchmark measures outside the pass (canonicalization).
  virtual void traced_extras() = 0;
  /// Stable description of the inputs and settings, for the run record.
  virtual std::map<std::string, std::string> describe() const = 0;
};

/// `work` sizes the inputs: one pass over them takes about that many
/// seconds on a 4-core x86 host.
std::unique_ptr<Workload> make_paper_suite(std::uint64_t seed, double work);
std::unique_ptr<Workload> make_service(bool mix, std::uint64_t seed,
                                       double work);

/// Linear-interpolated percentile (q in [0,1]) of an unsorted sample.
double percentile(std::vector<double> values, double q);

/// Mean of the slowest (1 - q) share of an unsorted sample (at least one
/// value).
double tail_mean(std::vector<double> values, double q);

/// Renaming check: solve every suite spec, then send a variable-renamed
/// copy and certify the imported answer against the renamed formula.
/// Returns the number of answers that fail; prints one line per failure.
int check_renamed_hits(std::uint64_t seed);

}  // namespace perfbench
