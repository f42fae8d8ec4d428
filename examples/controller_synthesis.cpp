// Partial-observation controller synthesis (a DQBF application the paper
// cites): each control output may only read the state/disturbance bits it
// observes — exactly a Henkin dependency restriction. Full observation is
// realizable; blinding an input usually makes the objective impossible,
// which the engines prove.
#include <iostream>

#include "aig/aig.hpp"
#include "baselines/hqs_lite.hpp"
#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "engine/engine.hpp"
#include "workloads/workloads.hpp"

namespace {

void run_variant(bool fully_observable) {
  manthan::workloads::ControllerParams params;
  params.state_bits = 3;
  params.disturbance_bits = 2;
  params.control_bits = 2;
  params.fully_observable = fully_observable;
  params.update_gates = 5;
  params.seed = 7;
  const manthan::dqbf::DqbfFormula game =
      manthan::workloads::gen_controller(params);

  std::cout << (fully_observable ? "[full observation]"
                                 : "[blinded sensors ]")
            << " plant with " << params.state_bits << " state bits, "
            << params.disturbance_bits << " disturbance bits, "
            << params.control_bits << " control outputs\n";

  manthan::aig::Aig manager;
  manthan::core::Manthan3Options options;
  options.time_limit_seconds = 30.0;
  manthan::core::Manthan3 synthesizer(options);
  const manthan::core::SynthesisResult result =
      synthesizer.synthesize(game, manager);

  switch (result.status) {
    case manthan::core::SynthesisStatus::kRealizable: {
      const auto cert =
          manthan::dqbf::check_certificate(game, manager, result.vector);
      std::cout << "  controller synthesized; certificate "
                << (cert.status == manthan::dqbf::CertificateStatus::kValid
                        ? "VALID"
                        : "INVALID")
                << "\n";
      for (std::size_t j = 0; j < params.control_bits; ++j) {
        std::cout << "  u" << j << " reads "
                  << manager.support(result.vector.functions[j]).size()
                  << " signals, "
                  << manager.cone_size(result.vector.functions[j])
                  << " AND nodes\n";
      }
      break;
    }
    case manthan::core::SynthesisStatus::kUnrealizable:
      std::cout << "  proven: no controller exists under this "
                   "observation structure\n";
      break;
    default: {
      std::cout << "  Manthan3 gave up ("
                << manthan::engine::status_name(result.status)
                << "); asking the elimination engine for a verdict\n";
      manthan::aig::Aig manager2;
      manthan::baselines::HqsLiteOptions hqs_options;
      hqs_options.time_limit_seconds = 30.0;
      manthan::baselines::HqsLite hqs(hqs_options);
      const auto verdict = hqs.synthesize(game, manager2);
      std::cout << "  HqsLite: "
                << manthan::engine::status_name(verdict.status) << "\n";
      break;
    }
  }
}

}  // namespace

int main() {
  run_variant(/*fully_observable=*/true);
  run_variant(/*fully_observable=*/false);
  return 0;
}
