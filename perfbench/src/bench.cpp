#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Families whose instances are True by construction (workloads.hpp): an
/// unrealizable verdict on one of them is a wrong answer.
bool true_by_construction(const std::string& family) {
  return family == "planted" || family == "planted_hard" || family == "pec" ||
         family == "succinct_sat" || family == "xor_chain";
}

}  // namespace

core::Manthan3Options manthan3_options() {
  core::Manthan3Options options;
  options.max_counterexamples = 50;
  options.max_repair_iterations = 500;
  return options;
}

void Digest::add(std::string_view text) {
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
  hash_ ^= 0xff;  // field separator
  hash_ *= 1099511628211ULL;
}

void Digest::add(std::uint64_t value) { add(std::to_string(value)); }

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

void EngineTotals::add(core::SynthesisStatus status,
                       const core::SynthesisStats& stats) {
  ++runs;
  samples += stats.samples;
  counterexamples += stats.counterexamples;
  repairs += stats.repairs;
  repair_checks += stats.repair_checks;
  maxsat_calls += stats.maxsat_calls;
  refit_candidates += stats.refit_candidates;
  samples_appended += stats.samples_appended;
  cones_encoded += stats.cones_encoded;
  cones_reused += stats.cones_reused;
  if (status == core::SynthesisStatus::kIncomplete) ++incomplete;
  if (status == core::SynthesisStatus::kLimit) ++limit;
  sample_matrix_peak_bytes =
      std::max(sample_matrix_peak_bytes, stats.sample_matrix_bytes);
}

void mark_failed(Outcome& outcome, const std::string& reason) {
  if (!outcome.failed) outcome.failure = reason;
  outcome.failed = true;
}

void classify(Outcome& outcome, bool certified, const std::string& family) {
  using core::SynthesisStatus;
  switch (outcome.status) {
    case SynthesisStatus::kTimeout:
      mark_failed(outcome, "wall cap reached");
      break;
    case SynthesisStatus::kOutOfBudget:
      mark_failed(outcome, "out of budget");
      break;
    case SynthesisStatus::kInternalError:
      mark_failed(outcome, "internal error");
      break;
    case SynthesisStatus::kRealizable:
      if (!certified) mark_failed(outcome, "realizable but not certified");
      break;
    case SynthesisStatus::kUnrealizable:
      if (true_by_construction(family)) {
        mark_failed(outcome, "unrealizable on True family " + family);
      }
      break;
    case SynthesisStatus::kIncomplete:
    case SynthesisStatus::kLimit:
      break;
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t below = static_cast<std::size_t>(rank);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

double tail_mean(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t from = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  double sum = 0.0;
  for (std::size_t i = from; i < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - from);
}

}  // namespace perfbench
