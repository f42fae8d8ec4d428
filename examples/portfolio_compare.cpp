// Portfolio comparison on a small suite: fans all three engines across a
// scheduler thread pool under a per-instance budget, prints the per-run
// table and the headline solved counts — a miniature of the paper's full
// evaluation (see bench/ for the figure-by-figure reproduction) — then
// demonstrates the racing portfolio: all engines launched on one
// instance, first certified result wins, losers cancelled mid-run.
#include <iostream>
#include <thread>

#include "engine/race.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/tables.hpp"
#include "workloads/workloads.hpp"

int main() {
  manthan::workloads::SuiteParams suite_params;
  suite_params.scale = 1;
  const std::vector<manthan::workloads::Instance> suite =
      manthan::workloads::standard_suite(suite_params);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers = hw == 0 ? 1 : hw;
  std::cout << "running " << suite.size()
            << " instances x 3 engines (budget 2 s each, " << workers
            << " workers)\n\n";

  manthan::portfolio::RunnerOptions options;
  options.per_instance_seconds = 2.0;
  manthan::portfolio::Runner runner(options);
  const std::vector<manthan::portfolio::RunRecord> records =
      runner.run_suite(suite,
                       {manthan::engine::EngineKind::kManthan3,
                        manthan::engine::EngineKind::kHqsLite,
                        manthan::engine::EngineKind::kPedantLite},
                       manthan::portfolio::ParallelOptions{workers});

  manthan::portfolio::print_run_records(std::cout, records);
  std::cout << '\n';
  manthan::portfolio::print_solved_counts(
      std::cout, manthan::portfolio::compute_solved_counts(records));

  // --- racing portfolio -----------------------------------------------------
  // A nested-dependency planted instance with strong engine asymmetry:
  // HqsLite eliminates it quickly, the other lanes get cancelled.
  manthan::workloads::PlantedParams params{16, 6, 5, 5, 180, 3};
  params.xor_functions = false;
  params.nested_deps = true;
  params.dep_size_max = 12;
  const manthan::dqbf::DqbfFormula formula =
      manthan::workloads::gen_planted(params);

  std::cout << "\nracing all engines on one planted-hard instance:\n";
  manthan::aig::Aig manager;
  manthan::engine::RaceOptions race_options;
  race_options.time_limit_seconds = 60.0;
  const manthan::engine::RaceOutcome outcome =
      manthan::engine::race(formula, manager, race_options);
  for (const manthan::engine::RaceLane& lane : outcome.lanes) {
    std::cout << "  " << manthan::engine::engine_name(lane.engine) << ": "
              << manthan::engine::status_name(lane.status)
              << (lane.winner ? " [winner]" : "")
              << (lane.cancelled ? " [cancelled]" : "") << "  ("
              << lane.seconds << " s)\n";
  }
  std::cout << "race outcome: "
            << manthan::engine::status_name(outcome.status)
            << (outcome.solved() ? " (certified)" : "") << '\n';
  return 0;
}
