#include "host_speed.hpp"

#include <array>
#include <cstdint>
#include <utility>

namespace perfbench {

namespace {

using Clause = std::array<int, 3>;
using Sample = SpeedMeter::Sample;

/// DPLL with two watched literals on one fixed random 3-SAT formula near
/// the satisfiability threshold: unit propagation over a few kilobytes
/// with data-dependent branches, like the library's SAT calls, and so
/// the core's speed on such code. Every solve starts from the same state
/// and does the same work.
class ReferenceSolver {
 public:
  ReferenceSolver() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x]() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int c = 0; c < kClauses; ++c) {
      Clause clause{};
      for (int& lit : clause) {
        const int var = 1 + static_cast<int>(next() % kVars);
        lit = (next() & 1) != 0 ? var : -var;
      }
      formula_.push_back(clause);
    }
  }

  /// Solves the formula from scratch; returns the propagations made, so
  /// the work cannot be optimized away.
  std::uint64_t solve() {
    clauses_ = formula_;
    watches_.assign(2 * kVars + 2, {});
    value_.assign(kVars + 1, 0);
    trail_.clear();
    propagations_ = 0;
    for (int c = 0; c < kClauses; ++c) {
      watches_[index(clauses_[c][0])].push_back(c);
      watches_[index(clauses_[c][1])].push_back(c);
    }
    search(0);
    return propagations_;
  }

 private:
  static constexpr int kVars = 50;
  static constexpr int kClauses = 213;

  static int index(int lit) { return lit > 0 ? 2 * lit : 1 - 2 * lit; }
  int value(int lit) const {
    const int v = value_[lit > 0 ? lit : -lit];
    return lit > 0 ? v : -v;
  }
  void assign(int lit) {
    value_[lit > 0 ? lit : -lit] = static_cast<signed char>(lit > 0 ? 1 : -1);
    trail_.push_back(lit);
  }

  // Watches of a false literal move to a non-false one, or the clause is
  // unit (assign) or conflicting (false).
  bool propagate(std::size_t head) {
    while (head < trail_.size()) {
      const int lit = trail_[head++];
      std::vector<int>& watching = watches_[index(-lit)];
      for (std::size_t i = 0; i < watching.size();) {
        ++propagations_;
        Clause& clause = clauses_[watching[i]];
        if (clause[0] == -lit) std::swap(clause[0], clause[1]);
        if (value(clause[0]) == 1) {
          ++i;
          continue;
        }
        if (value(clause[2]) != -1) {
          std::swap(clause[1], clause[2]);
          watches_[index(clause[1])].push_back(watching[i]);
          watching[i] = watching.back();
          watching.pop_back();
          continue;
        }
        if (value(clause[0]) == -1) return false;
        if (value(clause[0]) == 0) assign(clause[0]);
        ++i;
      }
    }
    return true;
  }

  bool search(std::size_t head) {
    if (!propagate(head)) return false;
    int var = 1;
    while (var <= kVars && value_[var] != 0) ++var;
    if (var > kVars) return true;
    for (const int lit : {var, -var}) {
      const std::size_t mark = trail_.size();
      assign(lit);
      if (search(mark)) return true;
      while (trail_.size() > mark) {
        const int undone = trail_.back();
        trail_.pop_back();
        value_[undone > 0 ? undone : -undone] = 0;
      }
    }
    return false;
  }

  std::vector<Clause> formula_;
  std::vector<Clause> clauses_;
  std::vector<std::vector<int>> watches_;
  std::vector<signed char> value_;
  std::vector<int> trail_;
  std::uint64_t propagations_ = 0;
};

/// A dependent random walk over a 1.5 MB cycle: the core's latency to
/// the caches beyond L1, which neighbours sharing them drive up.
class MemoryWalk {
 public:
  MemoryWalk() : next_(kBytes / sizeof(std::uint32_t)) {
    // Sattolo's shuffle: one cycle through every slot.
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (std::size_t i = 0; i < next_.size(); ++i) {
      next_[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// Walks kSteps steps; returns the slot reached.
  std::uint32_t walk() {
    for (int k = 0; k < kSteps; ++k) at_ = next_[at_];
    return at_;
  }

 private:
  static constexpr std::size_t kBytes = 3u << 19;
  static constexpr int kSteps = 10000;
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
};

/// Times one reference solve and one walk.
Sample reference_sample() {
  static ReferenceSolver solver;
  static MemoryWalk memory;
  static volatile std::uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  sink = sink + solver.solve();
  const Clock::time_point solved = Clock::now();
  sink = sink + memory.walk();
  const Clock::time_point walked = Clock::now();
  return {std::chrono::duration<double>(solved - start).count(),
          std::chrono::duration<double>(walked - solved).count()};
}

}  // namespace

double SpeedMeter::poll() {
  if (!solve_s_.empty() && seconds_since(last_sample_) < 0.1) return 0.0;
  return sample();
}

double SpeedMeter::sample() {
  const Clock::time_point start = Clock::now();
  const Sample s = reference_sample();
  solve_s_.push_back(s.solve_s);
  walk_s_.push_back(s.walk_s);
  last_sample_ = Clock::now();
  return seconds_since(start);
}

double SpeedMeter::take() {
  if (solve_s_.empty()) return 1.0;
  medians_ = {percentile(solve_s_, 0.5), percentile(walk_s_, 0.5)};
  solve_s_.clear();
  walk_s_.clear();
  return (kReferenceSolveSeconds / medians_.solve_s) *
         (kReferenceWalkSeconds / medians_.walk_s);
}

}  // namespace perfbench
