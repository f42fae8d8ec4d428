// The benchmark binary.
//
//   perfbench --workload <paper_suite|service_mix|service_cold>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --check-renamed --seed <n>
//
// --trace 0 makes several passes over the same inputs and prints the
// end-to-end metrics; --trace 1 makes an untraced and a traced pass over
// those inputs and prints the per-layer metrics. The last line of stdout
// is the result object; the line before it records the machine, build
// and settings.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "host_speed.hpp"
#include "engine/engine.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace_stats.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

using namespace manthan;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Passes over the same inputs in an untraced run. The inputs are sized
/// for kPasses passes in --seconds; a fourth or fifth pass runs if it
/// still fits. Each operation's latency is its median over the passes
/// and wall_s the median pass, so a pass slowed by the host counts for
/// little.
constexpr int kPasses = 3;
constexpr int kMaxPasses = 5;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 35;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

/// Registry counters and gauges by name (sat_*, core_*).
std::map<std::string, double> registry_values() {
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  std::map<std::string, double> values;
  for (const auto& [name, value] : snapshot.counters) {
    values[name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : snapshot.gauges) values[name] = value;
  return values;
}

const char* const kSatCounters[][2] = {
    {"sat.decisions", "sat_decisions_total"},
    {"sat.propagations", "sat_propagations_total"},
    {"sat.conflicts", "sat_conflicts_total"},
    {"sat.restarts", "sat_restarts_total"},
    {"sat.models", "sat_enumerated_models_total"},
    {"sat.solvers", "sat_solvers_total"},
};

/// One pass with its registry deltas.
struct MeasuredPass {
  Pass pass;
  std::map<std::string, double> sat;  // metric name -> delta
};

MeasuredPass measure(Workload& workload) {
  // Counters register on first use, so a missing one reads as zero.
  std::map<std::string, double> before = registry_values();
  MeasuredPass measured{workload.run(), {}};
  std::map<std::string, double> after = registry_values();
  for (const auto& names : kSatCounters) {
    measured.sat[names[0]] = after[names[1]] - before[names[1]];
  }
  return measured;
}

std::string digest_of(const MeasuredPass& measured) {
  Digest digest;
  for (const Outcome& outcome : measured.pass.outcomes) {
    digest.add(engine::status_name(outcome.status));
    digest.add(outcome.cache_hit ? 1 : 0);
    digest.add(outcome.counterexamples);
    digest.add(outcome.repairs);
  }
  for (const auto& [name, value] : measured.sat) {
    digest.add(name);
    digest.add(static_cast<std::uint64_t>(value));
  }
  return digest.hex();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double work) {
  if (name == "paper_suite") return make_paper_suite(seed, work);
  if (name == "service_mix") return make_service(true, seed, work);
  if (name == "service_cold") return make_service(false, seed, work);
  return nullptr;
}

/// Marks every operation whose verdict or search effort differs from
/// the first pass failed: the passes run the same inputs.
void compare_passes(std::vector<MeasuredPass>& passes) {
  const std::vector<Outcome>& first = passes.front().pass.outcomes;
  for (std::size_t p = 1; p < passes.size(); ++p) {
    std::vector<Outcome>& outcomes = passes[p].pass.outcomes;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& a = first[i];
      const Outcome& b = outcomes[i];
      if (a.status != b.status || a.cache_hit != b.cache_hit ||
          a.counterexamples != b.counterexamples || a.repairs != b.repairs) {
        mark_failed(outcomes[i], "pass " + std::to_string(p + 1) +
                                     " diverged from pass 1 at operation " +
                                     std::to_string(i));
      }
    }
  }
}

/// Every time but setup_s is scaled by its pass's host speed factor.
void end_to_end_metrics(const std::vector<MeasuredPass>& passes,
                        double setup_s, std::vector<Metric>& out) {
  const std::size_t n = passes.front().pass.outcomes.size();
  std::vector<double> latencies;  // per operation, median over passes
  std::size_t failed = 0;
  std::size_t attempted = 0;
  std::size_t solved = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> samples;
    bool ok = true;
    for (const MeasuredPass& measured : passes) {
      const Outcome& outcome = measured.pass.outcomes[i];
      samples.push_back(outcome.latency_s * measured.pass.speed);
      ok = ok && outcome.solved && !outcome.failed;
      failed += outcome.failed ? 1 : 0;
      ++attempted;
    }
    latencies.push_back(percentile(samples, 0.5));
    solved += ok ? 1 : 0;
  }
  std::vector<double> walls;
  for (const MeasuredPass& measured : passes) {
    walls.push_back(measured.pass.wall_s * measured.pass.speed);
  }
  const double wall_s = percentile(walls, 0.5);
  out.push_back({"solved", static_cast<double>(solved), "count"});
  out.push_back({"ok_rate",
                 1.0 - static_cast<double>(failed) /
                           static_cast<double>(attempted),
                 "ratio"});
  out.push_back({"wall_s", wall_s, "s"});
  out.push_back({"goodput_rps", static_cast<double>(solved) / wall_s, "1/s"});
  out.push_back({"lat_p50_ms", 1e3 * percentile(latencies, 0.5), "ms"});
  // The slowest tenth's mean, not the 90th percentile: on paper_suite the
  // 90th percentile falls in a gap of the latency distribution (25 ms to
  // 45 ms), so it moves by 9-11% (coefficient of variation) between
  // seeds, where this moves by 4-6%.
  out.push_back({"lat_tail90_ms", 1e3 * tail_mean(latencies, 0.9), "ms"});
  out.push_back({"setup_s", setup_s, "s"});
}

void per_layer_metrics(const MeasuredPass& measured, const TraceStats& trace,
                       double gen_s, double untraced_wall_s,
                       std::vector<Metric>& out,
                       std::map<std::string, std::size_t>& samples) {
  const Pass& pass = measured.pass;
  const EngineTotals& e = pass.engine;
  const auto layer = [&](const char* name) {
    const auto it = pass.layer.find(name);
    return it == pass.layer.end() ? 0.0 : it->second;
  };
  const auto span_metric = [&](const char* metric, const char* span) {
    const SpanTotals& totals = trace.span(span);
    out.push_back({metric, totals.inclusive_s, "s"});
    samples[metric] = totals.count;
  };
  const auto count = [&](const char* metric, double value) {
    out.push_back({metric, value, "count"});
    samples[metric] = e.runs;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const std::map<std::string, double> registry = registry_values();
  const auto mb = [&](const char* gauge) {
    const auto it = registry.find(gauge);
    return it == registry.end() ? 0.0 : 1e-6 * it->second;
  };

  out.push_back({"workloads.gen_s", gen_s, "s"});
  span_metric("dqbf.parse_s", "dqbf.parse");
  span_metric("dqbf.canonicalize_s", "dqbf.canonicalize");
  // run_one is synthesize plus the certificate check; its self time is
  // the check (and negligible glue).
  const SpanTotals& run_one = trace.span("portfolio.run_one");
  out.push_back({"dqbf.certify_s", run_one.self_s, "s"});
  samples["dqbf.certify_s"] = run_one.count;

  span_metric("core.synthesize_s", "synthesize");
  span_metric("core.verify_s", "verify.round");
  span_metric("core.repair_s", "repair");
  span_metric("core.extend_s", "extend");
  span_metric("core.unique_def_s", "unique_def");
  span_metric("core.substitute_s", "substitute");
  // Synthesize time no phase span covers.
  const SpanTotals& synth = trace.span("synthesize");
  out.push_back({"core.synthesize_uncovered_s", synth.self_s, "s"});
  samples["core.synthesize_uncovered_s"] = synth.count;
  out.push_back({"core.phase_coverage",
                 ratio(synth.inclusive_s - synth.self_s, synth.inclusive_s),
                 "ratio"});
  samples["core.phase_coverage"] = synth.count;
  count("core.counterexamples", static_cast<double>(e.counterexamples));
  count("core.repairs", static_cast<double>(e.repairs));
  count("core.repair_checks", static_cast<double>(e.repair_checks));
  count("core.incomplete", static_cast<double>(e.incomplete));
  count("core.limit", static_cast<double>(e.limit));
  out.push_back({"core.repair_yield",
                 ratio(static_cast<double>(e.repairs),
                       static_cast<double>(e.repair_checks)),
                 "ratio"});
  samples["core.repair_yield"] = e.repair_checks;
  out.push_back(
      {"core.cones_reuse_ratio",
       ratio(static_cast<double>(e.cones_reused),
             static_cast<double>(e.cones_reused + e.cones_encoded)),
       "ratio"});
  samples["core.cones_reuse_ratio"] = e.cones_reused + e.cones_encoded;

  span_metric("sampler.sample_s", "sample");
  count("sampler.samples", static_cast<double>(e.samples));
  span_metric("dtree.learn_s", "learn");
  span_metric("dtree.refit_s", "refit");
  count("dtree.refit_candidates", static_cast<double>(e.refit_candidates));
  count("cnf.samples_appended", static_cast<double>(e.samples_appended));
  out.push_back({"cnf.sample_matrix_peak_mb",
                 1e-6 * static_cast<double>(e.sample_matrix_peak_bytes),
                 "MB"});

  span_metric("maxsat.round_s", "maxsat.round");
  count("maxsat.calls", static_cast<double>(e.maxsat_calls));
  span_metric("sat.inprocess_s", "inprocess");
  for (const auto& names : kSatCounters) {
    out.push_back({names[0], measured.sat.at(names[0]), "count"});
  }
  out.push_back({"sat.arena_peak_mb", mb("sat_arena_peak_bytes"), "MB"});

  span_metric("aig.import_s", "aig.import");
  out.push_back({"aig.peak_mb",
                 std::max(mb("core_aig_peak_bytes"), layer("aig.peak_mb")),
                 "MB"});

  span_metric("engine.submit_s", "engine.submit");
  out.push_back({"engine.hit_ratio", layer("engine.hit_ratio"), "ratio"});
  for (const char* name : {"engine.coalesced", "engine.completed",
                           "engine.reruns", "engine.tier2_hits",
                           "engine.cancelled"}) {
    out.push_back({name, layer(name), "count"});
  }
  out.push_back({"engine.queue_wait_ms_p50",
                 1e3 * percentile(trace.queue_wait_s, 0.5), "ms"});
  samples["engine.queue_wait_ms_p50"] = trace.queue_wait_s.size();
  const SpanTotals& jobs = trace.span("service.job");
  out.push_back(
      {"engine.worker_busy",
       ratio(jobs.inclusive_s,
             static_cast<double>(pass.workers) * pass.wall_s),
       "ratio"});
  samples["engine.worker_busy"] = jobs.count;

  span_metric("portfolio.run_one_s", "portfolio.run_one");

  // Process peak RSS is set by the single largest transient of the run,
  // which moves with the inputs by ~25% between seeds: a layer figure,
  // not a gated end-to-end one.
  out.push_back({"process.peak_rss_mb",
                 1e-6 * static_cast<double>(obs::peak_rss_bytes()), "MB"});
  out.push_back({"obs.trace_overhead",
                 pass.wall_s * pass.speed / untraced_wall_s - 1.0, "ratio"});
  out.push_back(
      {"obs.dropped_events", static_cast<double>(trace.dropped), "count"});
}

struct Args {
  Config config;
  bool check_renamed = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check-renamed") {
      args.check_renamed = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (value.empty()) return false;
    char* end = nullptr;
    if (flag == "--workload") {
      args.config.workload = value;
    } else if (flag == "--seed") {
      args.config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      const long seconds = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || seconds < 1 || seconds > 3600) return false;
      args.config.seconds = static_cast<int>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.config.trace = value == "1";
    } else {
      return false;
    }
  }
  return true;
}

int run(const Config& config) {
  std::vector<Metric> metrics;
  std::map<std::string, std::size_t> samples;
  TraceStats trace;

  // Set-up is timed on several fresh workloads. It allocates far more
  // than it computes, and the speed kernels do not track it, so it is
  // reported unscaled.
  std::unique_ptr<Workload> workload;
  std::vector<double> setups;
  double gen_s = 0.0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload = make_workload(config.workload, config.seed,
                             static_cast<double>(config.seconds) / kPasses);
    const Clock::time_point start = Clock::now();
    gen_s = workload->setup();
    setups.push_back(seconds_since(start));
  }
  const std::map<std::string, std::string> described = workload->describe();

  std::vector<MeasuredPass> passes;
  const Clock::time_point measure_start = Clock::now();
  for (int done = 0;; ++done) {
    if (done > 0) workload->rewind();
    passes.push_back(measure(*workload));
    if (config.trace) break;
    // Start another pass only if it should end within --seconds.
    const double per_pass = seconds_since(measure_start) / (done + 1);
    if (done + 1 >= kMaxPasses ||
        (done + 1 >= kPasses && per_pass * (done + 2) > config.seconds)) {
      break;
    }
  }
  if (config.trace) {
    workload->rewind();
    obs::start_tracing();
    passes.push_back(measure(*workload));
    workload->traced_extras();
    obs::stop_tracing();
    trace = collect_trace_stats();
    obs::clear_trace();
  }
  // The last pass's answers are re-verified; every other pass must match
  // it operation by operation.
  workload->check(passes.back().pass);
  compare_passes(passes);
  const std::string digest = digest_of(passes.front());
  bool passes_agree = true;
  for (const MeasuredPass& measured : passes) {
    passes_agree = passes_agree && digest_of(measured) == digest;
  }
  if (config.trace) {
    const Pass& untraced = passes.front().pass;
    per_layer_metrics(passes.back(), trace, gen_s,
                      untraced.wall_s * untraced.speed, metrics, samples);
  } else {
    end_to_end_metrics(passes, percentile(setups, 0.5), metrics);
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  for (const MeasuredPass& measured : passes) {
    for (const Outcome& outcome : measured.pass.outcomes) {
      ++attempted;
      if (!outcome.failed) continue;
      ++failed;
      if (failures.size() < 20) failures.push_back(outcome.failure);
    }
  }

  // Run record: everything needed to decide whether two results may be
  // compared at all.
  std::ostringstream info;
  info << "{\"record\": {\"workload\": " << json_string(config.workload)
       << ", \"seed\": " << config.seed << ", \"seconds\": " << config.seconds
       << ", \"trace\": " << (config.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"simd_tier\": "
       << json_string(util::simd::tier_name(util::simd::active_tier()))
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
       << ", \"wall_cap_s\": " << json_number(kWallCapSeconds);
  for (const auto& [key, value] : described) {
    info << ", " << json_string(key) << ": " << json_string(value);
  }
  info << ", \"digest\": " << json_string(digest)
       << ", \"passes_agree\": " << (passes_agree ? "true" : "false")
       << ", \"reference_solve_s\": " << json_number(kReferenceSolveSeconds)
       << ", \"reference_walk_s\": " << json_number(kReferenceWalkSeconds)
       << ", \"passes\": [";
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p].pass;
    info << (p ? ", " : "") << "{\"wall_s\": " << json_number(pass.wall_s)
         << ", \"solve_s\": " << json_number(pass.reference_solve_s)
         << ", \"walk_s\": " << json_number(pass.reference_walk_s)
         << ", \"speed\": " << json_number(pass.speed) << "}";
  }
  info << "]";
  if (config.trace) {
    info << ", \"trace_events\": " << trace.events
         << ", \"trace_truncated\": " << (trace.dropped > 0 ? "true" : "false")
         << ", \"samples\": {";
    bool first = true;
    for (const auto& [name, n] : samples) {
      info << (first ? "" : ", ") << json_string(name) << ": " << n;
      first = false;
    }
    info << "}, \"spans\": {";
    first = true;
    for (const auto& [name, totals] : trace.spans) {
      info << (first ? "" : ", ") << json_string(name)
           << ": {\"count\": " << totals.count
           << ", \"inclusive_s\": " << json_number(totals.inclusive_s)
           << ", \"self_s\": " << json_number(totals.self_s) << "}";
      first = false;
    }
    info << "}";
  }
  info << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    info << (i ? ", " : "") << json_string(failures[i]);
  }
  info << "]}}";
  std::printf("%s\n", info.str().c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result << (i ? ", " : "") << json_string(metrics[i].name)
           << ": {\"value\": " << json_number(metrics[i].value)
           << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper_suite|service_mix|"
                 "service_cold> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       perfbench --check-renamed --seed <n>\n");
    return 2;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (args.check_renamed) {
    return perfbench::check_renamed_hits(args.config.seed) == 0 ? 0 : 1;
  }
  if (!perfbench::make_workload(args.config.workload, 0, 1.0)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.config.workload.c_str());
    return 2;
  }
  return perfbench::run(args.config);
}
