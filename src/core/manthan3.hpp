// Manthan3 — data-driven Henkin function synthesis (the paper's core
// contribution; Algorithms 1-3).
//
// Pipeline:
//   1. GetSamples      — constrained sampling of models of φ (sampler/).
//   2. CandidateHkF    — per-existential decision-tree learning restricted
//                        to Henkin-admissible features (dtree/, dependency
//                        manager).
//   3. Verification    — SAT check of E(X,Y') = ¬φ(X,Y') ∧ (Y' ↔ f).
//   4. RepairHkF       — MaxSAT selection of repair candidates plus
//                        UNSAT-core-guided strengthening/weakening.
//   5. Substitute      — expand candidates so each f_i mentions only H_i.
//
// The engine is sound (returns only certified vectors) but not complete:
// on instances where no admissible repair exists (paper §5) it reports
// kIncomplete.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "aig/aig.hpp"
#include "core/analysis_cache.hpp"
#include "core/unique_def.hpp"
#include "dqbf/dqbf.hpp"
#include "dtree/decision_tree.hpp"
#include "sampler/sampler.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace manthan::core {

struct Manthan3Options {
  sampler::SamplerOptions sampler;
  dtree::DtreeOptions dtree;
  /// Run the UNIQUE-style preprocessing pass (ablation: abl3_unique_def).
  bool use_unique_extraction = true;
  UniqueDefOptions unique;
  /// Constrain Ŷ in the repair formula G_k (ablation: abl1_repair_yhat;
  /// §5 argues this is required for many repairs to succeed).
  bool use_yhat_in_repair = true;
  /// Give up after this many candidate-repair attempts in total.
  std::size_t max_repair_iterations = 20000;
  /// Give up after this many verification counterexamples.
  std::size_t max_counterexamples = 2000;
  /// Wall-clock budget in seconds; 0 = unlimited.
  double time_limit_seconds = 0.0;
  /// Cooperative stop flag (composed into the internal Deadline, which
  /// the SAT/MaxSAT/sampler layers poll): when cancelled mid-run the
  /// engine returns kTimeout within a bounded number of decisions and
  /// propagations. Null = not cancellable; must outlive synthesize().
  const util::CancelToken* cancel = nullptr;
  /// Workers for per-existential candidate learning: decision-tree
  /// fitting fans across a util::Scheduler pool. Fitting is pure and
  /// each existential draws a util::derive_seed-split stream, so results
  /// are bit-identical at every worker count. 1 = in-thread.
  std::size_t learn_workers = 1;
  /// Cross-round sample reuse: append every repair counterexample's
  /// φ-extension π, each MaxSAT-corrected σ and every SAT G_k model ρ to
  /// the training matrix (fingerprint-deduped), and refit candidates that
  /// disagree with the refreshed data — screened by 64-way AIG simulation
  /// over the matrix. A candidate is refit when its error rate over the
  /// rows appended since its own last fit reaches 5% (measured once 16
  /// fresh rows arrived), and a verification round that repairs nothing
  /// screens every candidate against the whole matrix. Later refits
  /// therefore train on counterexample-corrected data instead of the
  /// stale round-0 samples.
  bool sample_reuse = true;
  /// Inter-round maintenance on the persistent solvers: every
  /// `inprocess_interval` counterexamples (0 = never), run SAT
  /// inprocessing (occurrence-list subsumption + self-subsumption,
  /// bounded variable elimination, clause vivification) and variable-range
  /// compaction on the verify solver and the shared φ/MaxSAT solver.
  /// Retired activation scopes, dead Tseitin cones, and recycled MaxSAT
  /// round variables are reclaimed, so daemon-length runs stop leaking
  /// variable ids. Sound by construction: interface variables are frozen
  /// and the remapper translates models/cores back to stable numbering.
  std::size_t inprocess_interval = 32;
  /// Cross-instance analysis cache (the service's tier 2): unique-def
  /// Padoa verdicts and the dependency ⊆/= relations are looked up by
  /// canonical fingerprints before being recomputed, and computed results
  /// are stored for later runs — including runs on *near-duplicate* specs
  /// (the unique-def keys only see (matrix, y_i, H_i)). Cached values are
  /// exactly what a cold run would compute, so warm runs stay
  /// field-for-field identical at a fixed seed. Null = no caching. The
  /// cache is thread-safe and shared across concurrent syntheses; it must
  /// outlive the run.
  AnalysisCache* analysis_cache = nullptr;
  std::uint64_t seed = 42;
  /// Tag every obs trace span emitted by this run (args.trace_id in the
  /// Chrome trace). The service sets it to the spec fingerprint so spans
  /// of concurrent requests can be told apart; 0 = untagged. Telemetry
  /// only — never feeds the derive_seed streams.
  std::uint64_t trace_id = 0;
  /// Fault-injection schedule (util/fault.hpp spec grammar) installed
  /// into the process-global injector at the start of synthesize(),
  /// resetting its poll counters — so a single run replays the schedule
  /// deterministically. Empty = leave the injector alone (it may still be
  /// active via fault::install() or MANTHAN_FAULTS). Chaos testing only;
  /// concurrent runs share the one global injector.
  std::string fault_spec;
};

enum class SynthesisStatus {
  kRealizable,    // Henkin vector synthesized and verified
  kUnrealizable,  // the DQBF is False
  kIncomplete,    // engine's documented incompleteness: repair got stuck
  kLimit,         // iteration limits exhausted
  kTimeout,       // wall-clock budget exhausted
  kOutOfBudget,   // per-request ResourceBudget tripped (memory/conflicts/
                  // wall time/alloc failure); stats are truncated but valid
  kInternalError, // unexpected exception surfaced by the service layer;
                  // never produced by the engines themselves
};

/// Determinism class of a SynthesisStats field: which comparisons between
/// two runs at the same seed it takes part in.
enum class StatClass {
  /// Trajectory counters: equal at a fixed seed whatever the worker
  /// count, tracing state, SIMD tier or cache state.
  kDeterministic,
  /// Tier-2 analysis-cache hits: equal only at the same cache state.
  kTier2,
  /// The environment (wall clock, process RSS, worker count): never
  /// compared.
  kRun,
};

// The SynthesisStats schema, one X(type, name, class) entry per field in
// declaration order. The struct members, for_each_stat, and through it
// every exporter (.m3c cache files, daemon result JSON, core_<name>_total
// series, manthan3_cli `stat` lines) and the determinism tests are
// generated from this list. Comments inside the macro must be block
// comments: a line comment would swallow the line continuation.
#define MANTHAN_SYNTHESIS_STATS(X)                                           \
  /* Training rows drawn by the sampler before round 0. */                   \
  X(std::size_t, samples, kDeterministic)                                    \
  /* Existentials defined by unique-def extraction (Padoa). */               \
  X(std::size_t, unique_defined, kDeterministic)                             \
  /* Candidates learned by decision-tree fitting. */                         \
  X(std::size_t, learned_candidates, kDeterministic)                         \
  /* Verification counterexamples. */                                        \
  X(std::size_t, counterexamples, kDeterministic)                            \
  /* Candidate repairs applied. */                                           \
  X(std::size_t, repairs, kDeterministic)                                    \
  /* G_k satisfiability queries. */                                          \
  X(std::size_t, repair_checks, kDeterministic)                              \
  /* MaxSAT rounds selecting repair candidates. */                           \
  X(std::size_t, maxsat_calls, kDeterministic)                               \
  /* Wall-clock seconds per phase and for the whole run. */                  \
  X(double, sampling_seconds, kRun)                                          \
  X(double, learning_seconds, kRun)                                          \
  X(double, verify_seconds, kRun)                                            \
  X(double, repair_seconds, kRun)                                            \
  X(double, total_seconds, kRun)                                             \
  /* --- persistent verify and φ/MaxSAT solver counters --- */               \
  /* Worker count used for candidate learning (0 when the run learned      \
     nothing: the baselines, or a run that ended before learning). */       \
  X(std::size_t, learn_workers, kRun)                                        \
  /* Candidate output equivalences (re-)encoded into the verify solver. */   \
  X(std::size_t, cones_encoded, kDeterministic)                              \
  /* Per-round candidates whose cached cone encoding was reused as-is. */    \
  X(std::size_t, cones_reused, kDeterministic)                               \
  /* Fresh AIG nodes Tseitin-encoded by the verify solver's cone cache. */   \
  X(std::size_t, aig_nodes_encoded, kDeterministic)                          \
  /* Activation guards retired across the verify and φ/MaxSAT                \
     solvers. */                                                             \
  X(std::size_t, activations_retired, kDeterministic)                        \
  /* Variables allocated in the persistent verify solver. */                 \
  X(std::size_t, verify_vars, kDeterministic)                                \
  /* Clause records reclaimed by retirement in the verify solver. */         \
  X(std::size_t, verify_clauses_retired, kDeterministic)                     \
  /* Variables allocated in the shared φ/MaxSAT solver. */                   \
  X(std::size_t, phi_vars, kDeterministic)                                   \
  /* Clause records reclaimed by retirement in the φ/MaxSAT solver. */       \
  X(std::size_t, phi_clauses_retired, kDeterministic)                        \
  /* --- solver maintenance (zero when inprocess_interval = 0) --- */        \
  /* Inprocessing passes across the verify and φ/MaxSAT solvers. */          \
  X(std::size_t, inprocess_runs, kDeterministic)                             \
  /* Variables removed by bounded variable elimination (both solvers). */    \
  X(std::size_t, eliminated_vars, kDeterministic)                            \
  /* Clauses removed by occurrence-list subsumption (both solvers). */       \
  X(std::size_t, subsumed_clauses, kDeterministic)                           \
  /* Literals removed by clause vivification (both solvers). */              \
  X(std::size_t, vivified_literals, kDeterministic)                          \
  /* Internal variable slots reclaimed by compaction (both solvers). */      \
  X(std::size_t, remapped_vars, kDeterministic)                              \
  /* --- cross-round sample reuse (zero when sample_reuse = false) --- */    \
  /* Counterexample-derived samples appended to the training matrix (π       \
     extensions and MaxSAT-corrected σ, deduped by fingerprint). */          \
  X(std::size_t, samples_appended, kDeterministic)                           \
  /* Refit passes triggered by fresh-row errors / no-progress rounds. */     \
  X(std::size_t, refit_rounds, kDeterministic)                               \
  /* Refit candidates adopted across all passes. Screened twice: only        \
     candidates whose packed-sim predictions disagree with rows appended     \
     since their last fit are refit, and a refit whose support would         \
     create a dependency cycle is rejected (its predecessor stays). */       \
  X(std::size_t, refit_candidates, kDeterministic)                           \
  /* G_k-SAT models streamed into the matrix (subset of                      \
     samples_appended). */                                                   \
  X(std::size_t, gk_streamed_samples, kDeterministic)                        \
  /* Refit passes triggered by the per-candidate error-rate policy           \
     (subset of refit_rounds; forced no-progress refits are not counted      \
     here). */                                                               \
  X(std::size_t, adaptive_refits, kDeterministic)                            \
  /* --- tier-2 analysis cache (zero when analysis_cache is null) --- */     \
  /* Padoa verdicts answered from the cache (SAT checks skipped). */         \
  X(std::size_t, analysis_unique_hits, kTier2)                               \
  /* Dependency ⊆/= relations answered from the cache (1 per                 \
     warm run). */                                                           \
  X(std::size_t, analysis_dependency_hits, kTier2)                           \
  /* --- memory accounting (snapshots at run end) --- */                     \
  /* Process-wide peak resident set size in bytes. */                        \
  X(std::uint64_t, peak_rss_bytes, kRun)                                     \
  /* Heap bytes of the bit-packed training matrix at run end. */             \
  X(std::uint64_t, sample_matrix_bytes, kDeterministic)                      \
  /* Clause-arena bytes of the persistent verify solver. */                  \
  X(std::uint64_t, verify_arena_bytes, kDeterministic)                       \
  /* Clause-arena bytes of the shared φ/MaxSAT solver. */                    \
  X(std::uint64_t, phi_arena_bytes, kDeterministic)                          \
  /* AND/input nodes in the shared AIG manager at run end. */                \
  X(std::uint64_t, aig_nodes, kDeterministic)                                \
  /* Heap bytes of the AIG node table at run end. */                         \
  X(std::uint64_t, aig_bytes, kDeterministic)

struct SynthesisStats {
#define MANTHAN_STAT_MEMBER(type, name, cls) type name{};
  MANTHAN_SYNTHESIS_STATS(MANTHAN_STAT_MEMBER)
#undef MANTHAN_STAT_MEMBER
};

/// Calls f(name, value, class) for every SynthesisStats field, in schema
/// order. `value` refers into `stats`, so a decoder passes a mutable
/// SynthesisStats and assigns through it.
template <class Stats, class F>
void for_each_stat(Stats& stats, F&& f) {
#define MANTHAN_STAT_VISIT(type, name, cls) \
  f(#name, stats.name, StatClass::cls);
  MANTHAN_SYNTHESIS_STATS(MANTHAN_STAT_VISIT)
#undef MANTHAN_STAT_VISIT
}

/// The text form every stats exporter shares: integers in decimal, doubles
/// at precision 17 so they read back bit-exact.
std::string format_stat(double value);
template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
std::string format_stat(T value) {
  return std::to_string(value);
}

struct SynthesisResult {
  SynthesisStatus status = SynthesisStatus::kLimit;
  /// Valid when kRealizable: functions over H_i only (post-Substitute),
  /// indexed like formula.existentials().
  dqbf::HenkinVector vector;
  SynthesisStats stats;
};

class Manthan3 {
 public:
  explicit Manthan3(Manthan3Options options = {});

  /// Synthesize a Henkin vector for `formula`; functions are built in
  /// `manager` (universal variables as input ids).
  SynthesisResult synthesize(const dqbf::DqbfFormula& formula,
                             aig::Aig& manager);

 private:
  Manthan3Options options_;
};

}  // namespace manthan::core
