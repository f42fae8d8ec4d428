// Quickstart: parse a DQBF in DQDIMACS form, synthesize Henkin functions
// with Manthan3, certify them, and print the result.
//
// This is Example 1 from the paper (§5):
//   φ(X,Y) = (x1 ∨ y1) ∧ (y2 ↔ (y1 ∨ ¬x2)) ∧ (y3 ↔ (x2 ∨ x3))
//   H1 = {x1},  H2 = {x1,x2},  H3 = {x2,x3}
#include <iostream>

#include "aig/aig.hpp"
#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/dqdimacs.hpp"

int main() {
  // Variables 1..3 are x1..x3 (universal), 4..6 are y1..y3.
  // y2 <-> (y1 ∨ ¬x2) and y3 <-> (x2 ∨ x3) in CNF.
  const std::string dqdimacs =
      "c paper example 1\n"
      "p cnf 6 7\n"
      "a 1 2 3 0\n"
      "d 4 1 0\n"
      "d 5 1 2 0\n"
      "d 6 2 3 0\n"
      "1 4 0\n"
      "-5 4 -2 0\n"  // y2 -> (y1 ∨ ¬x2)
      "5 -4 0\n"     // y1 -> y2
      "5 2 0\n"      // ¬x2 -> y2
      "-6 2 3 0\n"   // y3 -> (x2 ∨ x3)
      "6 -2 0\n"     // x2 -> y3
      "6 -3 0\n";    // x3 -> y3

  const manthan::dqbf::DqbfFormula formula =
      manthan::dqbf::parse_dqdimacs_string(dqdimacs);
  std::cout << "parsed DQBF: " << formula.num_universals()
            << " universals, " << formula.num_existentials()
            << " existentials\n";

  manthan::aig::Aig manager;
  manthan::core::Manthan3 synthesizer;
  const manthan::core::SynthesisResult result =
      synthesizer.synthesize(formula, manager);

  if (result.status != manthan::core::SynthesisStatus::kRealizable) {
    std::cout << "synthesis did not produce a vector (status "
              << static_cast<int>(result.status) << ")\n";
    return 1;
  }

  std::cout << "synthesized a Henkin vector; run stats:\n";
  manthan::core::for_each_stat(
      result.stats,
      [](const char* name, const auto& value, manthan::core::StatClass) {
        std::cout << "  " << name << " = "
                  << manthan::core::format_stat(value) << "\n";
      });
  for (std::size_t i = 0; i < result.vector.functions.size(); ++i) {
    const auto support = manager.support(result.vector.functions[i]);
    std::cout << "  y" << i + 1 << " = function of {";
    for (std::size_t k = 0; k < support.size(); ++k) {
      std::cout << (k ? "," : "") << 'x' << support[k] + 1;
    }
    std::cout << "}  (" << manager.cone_size(result.vector.functions[i])
              << " AND nodes)\n";
  }

  const manthan::dqbf::CertificateResult cert =
      manthan::dqbf::check_certificate(formula, manager, result.vector);
  std::cout << "independent certificate check: "
            << (cert.status == manthan::dqbf::CertificateStatus::kValid
                    ? "VALID"
                    : "INVALID")
            << "\n";
  return cert.status == manthan::dqbf::CertificateStatus::kValid ? 0 : 1;
}
