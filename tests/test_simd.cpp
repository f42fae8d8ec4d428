// Runtime-dispatched SIMD kernels: every compiled tier must be bit-identical
// to the scalar reference — pinned at three levels: raw kernels over random
// word ranges (including empty and non-lane-multiple tails), the packed
// consumers (dtree fitting, simulate_matrix, fingerprints), and whole
// Manthan3::synthesize trajectories forced per tier (serial and 4-worker).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_sim.hpp"
#include "cnf/sample_matrix.hpp"
#include "core/manthan3.hpp"
#include "dtree/decision_tree.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace manthan::util::simd {
namespace {

/// RAII tier override: forces `tier` for the scope, restores on exit.
class TierGuard {
 public:
  explicit TierGuard(Tier tier) : previous_(set_active_tier_for_testing(tier)) {}
  ~TierGuard() { set_active_tier_for_testing(previous_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  Tier previous_;
};

std::vector<Tier> vector_tiers() {
  std::vector<Tier> tiers;
  for (const Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

std::vector<std::uint64_t> random_words(std::size_t n, util::Rng& rng) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng.next();
  return words;
}

// Lengths straddling every tail case: empty, sub-lane, exact AVX2 lane (4),
// exact AVX-512 lane (8), lane+tail, and multi-lane.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 100};

TEST(SimdKernels, VectorTiersMatchScalarReference) {
  const Kernels& ref = kernels_for(Tier::kScalar);
  for (const Tier tier : vector_tiers()) {
    const Kernels& k = kernels_for(tier);
    util::Rng rng(0x51u + static_cast<std::uint64_t>(tier));
    for (const std::size_t n : kLengths) {
      for (int round = 0; round < 8; ++round) {
        const std::vector<std::uint64_t> a = random_words(n, rng);
        const std::vector<std::uint64_t> b = random_words(n, rng);
        const std::vector<std::uint64_t> c = random_words(n, rng);

        EXPECT_EQ(k.popcount(a.data(), n), ref.popcount(a.data(), n));
        EXPECT_EQ(k.popcount_xor(a.data(), b.data(), n),
                  ref.popcount_xor(a.data(), b.data(), n));

        std::size_t total = 1, pos = 1, ref_total = 2, ref_pos = 2;
        k.count_node(a.data(), b.data(), n, &total, &pos);
        ref.count_node(a.data(), b.data(), n, &ref_total, &ref_pos);
        EXPECT_EQ(total, ref_total);
        EXPECT_EQ(pos, ref_pos);

        std::size_t hi = 1, hi_pos = 1, ref_hi = 2, ref_hi_pos = 2;
        k.count_split(a.data(), b.data(), c.data(), n, &hi, &hi_pos);
        ref.count_split(a.data(), b.data(), c.data(), n, &ref_hi,
                        &ref_hi_pos);
        EXPECT_EQ(hi, ref_hi);
        EXPECT_EQ(hi_pos, ref_hi_pos);

        std::vector<std::uint64_t> hi_out(n), lo_out(n);
        std::vector<std::uint64_t> ref_hi_out(n), ref_lo_out(n);
        k.split_masks(a.data(), b.data(), hi_out.data(), lo_out.data(), n);
        ref.split_masks(a.data(), b.data(), ref_hi_out.data(),
                        ref_lo_out.data(), n);
        EXPECT_EQ(hi_out, ref_hi_out);
        EXPECT_EQ(lo_out, ref_lo_out);

        for (const std::uint64_t inv_a : {0ULL, ~0ULL}) {
          for (const std::uint64_t inv_b : {0ULL, ~0ULL}) {
            for (const std::uint64_t inv_out : {0ULL, ~0ULL}) {
              std::vector<std::uint64_t> dst(n), ref_dst(n);
              k.combine(dst.data(), a.data(), inv_a, b.data(), inv_b,
                        inv_out, n);
              ref.combine(ref_dst.data(), a.data(), inv_a, b.data(), inv_b,
                          inv_out, n);
              EXPECT_EQ(dst, ref_dst);
            }
          }
          std::vector<std::uint64_t> dst(n), ref_dst(n);
          k.xor_const(dst.data(), a.data(), inv_a, n);
          ref.xor_const(ref_dst.data(), a.data(), inv_a, n);
          EXPECT_EQ(dst, ref_dst);
        }
      }
    }
  }
}

TEST(SimdKernels, CombineAndXorConstSupportAliasing) {
  // simulate_matrix writes gate outputs over their own scratch slots.
  for (const Tier tier : vector_tiers()) {
    const Kernels& k = kernels_for(tier);
    const Kernels& ref = kernels_for(Tier::kScalar);
    util::Rng rng(91);
    for (const std::size_t n : {5u, 16u, 33u}) {
      const std::vector<std::uint64_t> a = random_words(n, rng);
      const std::vector<std::uint64_t> b = random_words(n, rng);
      std::vector<std::uint64_t> expected(n);
      ref.combine(expected.data(), a.data(), ~0ULL, b.data(), 0, ~0ULL, n);
      std::vector<std::uint64_t> dst = a;
      k.combine(dst.data(), dst.data(), ~0ULL, b.data(), 0, ~0ULL, n);
      EXPECT_EQ(dst, expected);
      dst = a;
      k.xor_const(dst.data(), dst.data(), ~0ULL, n);
      std::vector<std::uint64_t> flipped(n);
      ref.xor_const(flipped.data(), a.data(), ~0ULL, n);
      EXPECT_EQ(dst, flipped);
    }
  }
}

TEST(SimdKernels, ScalarReferenceGroundTruth) {
  // Pin the scalar table itself against naive bit loops so the vector
  // tiers are not merely self-consistent with a broken reference.
  const Kernels& ref = kernels_for(Tier::kScalar);
  util::Rng rng(7);
  const std::size_t n = 11;
  const std::vector<std::uint64_t> a = random_words(n, rng);
  const std::vector<std::uint64_t> b = random_words(n, rng);
  std::size_t naive_pop = 0, naive_xor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      naive_pop += (a[i] >> bit) & 1;
      naive_xor += ((a[i] ^ b[i]) >> bit) & 1;
    }
  }
  EXPECT_EQ(ref.popcount(a.data(), n), naive_pop);
  EXPECT_EQ(ref.popcount_xor(a.data(), b.data(), n), naive_xor);
}

TEST(SimdDispatch, ResolveTierParsesOverrides) {
  const Tier best = best_supported_tier();
  EXPECT_EQ(resolve_tier(nullptr), best);
  EXPECT_EQ(resolve_tier(""), best);
  EXPECT_EQ(resolve_tier("unknown-tier"), best);
  EXPECT_EQ(resolve_tier("scalar"), Tier::kScalar);
  // Requests above the supported set clamp down, never up.
  EXPECT_LE(static_cast<int>(resolve_tier("avx2")),
            static_cast<int>(Tier::kAvx2));
  EXPECT_LE(static_cast<int>(resolve_tier("avx512")), static_cast<int>(best));
  if (tier_supported(Tier::kAvx2)) {
    EXPECT_EQ(resolve_tier("avx2"), Tier::kAvx2);
  }
  if (tier_supported(Tier::kAvx512)) {
    EXPECT_EQ(resolve_tier("avx512"), Tier::kAvx512);
  }
}

TEST(SimdDispatch, SetActiveTierForTestingRoundTrips) {
  const Tier original = active_tier();
  {
    TierGuard guard(Tier::kScalar);
    EXPECT_EQ(active_tier(), Tier::kScalar);
    EXPECT_EQ(&kernels(), &kernels_for(Tier::kScalar));
  }
  EXPECT_EQ(active_tier(), original);
}

TEST(SimdHelpers, FingerprintChainMatchesSplitmixLoop) {
  util::Rng rng(23);
  const std::vector<std::uint64_t> words = random_words(19, rng);
  std::uint64_t expected = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t w : words) {
    expected = util::splitmix64(expected ^ w);
  }
  EXPECT_EQ(fingerprint_chain(0x9e3779b97f4a7c15ULL, words.data(),
                              words.size()),
            expected);
  EXPECT_EQ(fingerprint_chain(42, words.data(), 0), 42u);
}

TEST(SimdHelpers, CollectSetBitsAppendsEveryIndexInOrder) {
  util::Rng rng(31);
  const std::vector<std::uint64_t> words = random_words(9, rng);
  std::vector<std::uint32_t> out{12345};  // pre-existing content survives
  collect_set_bits(words.data(), words.size(), out);
  std::vector<std::uint32_t> expected{12345};
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint32_t bit = 0; bit < 64; ++bit) {
      if ((words[w] >> bit) & 1) {
        expected.push_back(static_cast<std::uint32_t>(w * 64) + bit);
      }
    }
  }
  EXPECT_EQ(out, expected);
}

TEST(SimdAlignment, AlignedVectorIsCacheLineAligned) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedVector<std::uint64_t> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlignBytes, 0u)
        << "n = " << n;
  }
}

// --- forced-tier differentials over the packed consumers -------------------

cnf::SampleMatrix random_matrix(std::size_t num_vars, std::size_t samples,
                                util::Rng& rng) {
  cnf::SampleMatrix m(num_vars);
  for (std::size_t s = 0; s < samples; ++s) {
    cnf::Assignment a(num_vars);
    for (std::size_t v = 0; v < num_vars; ++v) {
      a.set(static_cast<cnf::Var>(v), rng.flip());
    }
    m.append(a);
  }
  return m;
}

aig::Ref random_cone(aig::Aig& m, int inputs, int gates, util::Rng& rng) {
  std::vector<aig::Ref> pool;
  for (int i = 0; i < inputs; ++i) pool.push_back(m.input(i));
  for (int g = 0; g < gates; ++g) {
    const aig::Ref a = pool[rng.next_below(pool.size())] ^
                       static_cast<aig::Ref>(rng.flip());
    const aig::Ref b = pool[rng.next_below(pool.size())] ^
                       static_cast<aig::Ref>(rng.flip());
    pool.push_back(m.and_gate(a, b));
  }
  return pool.back() ^ static_cast<aig::Ref>(rng.flip());
}

TEST(SimdDifferential, FittedTreesAreBitIdenticalAcrossTiers) {
  if (vector_tiers().empty()) GTEST_SKIP() << "no vector tier on this CPU";
  util::Rng rng(57);
  // 300 samples x 17 vars crosses word boundaries; several tie-break seeds.
  const cnf::SampleMatrix m = random_matrix(17, 300, rng);
  std::vector<cnf::Var> features;
  for (cnf::Var v = 0; v < 16; ++v) features.push_back(v);
  for (const std::uint64_t seed : {0ull, 9ull, 41ull}) {
    dtree::DtreeOptions options;
    options.seed = seed;
    TierGuard scalar_guard(Tier::kScalar);
    const dtree::DecisionTree reference =
        dtree::DecisionTree::fit(m, features, 16, options);
    for (const Tier tier : vector_tiers()) {
      TierGuard guard(tier);
      const dtree::DecisionTree tree =
          dtree::DecisionTree::fit(m, features, 16, options);
      EXPECT_EQ(tree.nodes(), reference.nodes())
          << "tier " << tier_name(tier) << " seed " << seed;
    }
  }
}

TEST(SimdDifferential, SimulateMatrixWordsAreBitIdenticalAcrossTiers) {
  if (vector_tiers().empty()) GTEST_SKIP() << "no vector tier on this CPU";
  util::Rng rng(63);
  for (int round = 0; round < 5; ++round) {
    aig::Aig manager;
    const aig::Ref root = random_cone(manager, 12, 80, rng);
    // 1100 samples: crosses the 16-word simulation block boundary.
    const cnf::SampleMatrix m = random_matrix(12, 1100, rng);
    std::vector<std::uint64_t> reference;
    {
      TierGuard guard(Tier::kScalar);
      reference = aig::simulate_matrix(manager, root, m);
    }
    for (const Tier tier : vector_tiers()) {
      TierGuard guard(tier);
      EXPECT_EQ(aig::simulate_matrix(manager, root, m), reference)
          << "tier " << tier_name(tier) << " round " << round;
    }
  }
}

TEST(SimdDifferential, FingerprintsAreTierIndependent) {
  // fingerprint_chain has exactly one implementation, but the feeder code
  // paths (append, row_fingerprint) run under whatever tier is active.
  util::Rng rng(77);
  const cnf::SampleMatrix m = random_matrix(130, 70, rng);
  std::vector<std::uint64_t> reference;
  {
    TierGuard guard(Tier::kScalar);
    for (std::size_t s = 0; s < m.num_samples(); ++s) {
      reference.push_back(m.row_fingerprint(s));
      EXPECT_EQ(m.row_fingerprint(s), cnf::fingerprint(m.row(s)));
    }
  }
  for (const Tier tier : vector_tiers()) {
    TierGuard guard(tier);
    for (std::size_t s = 0; s < m.num_samples(); ++s) {
      EXPECT_EQ(m.row_fingerprint(s), reference[s]);
    }
  }
}

// --- whole-trajectory differential: scalar vs best tier --------------------

core::SynthesisResult run_under(Tier tier, const dqbf::DqbfFormula& f,
                                const core::Manthan3Options& options,
                                aig::Aig& manager) {
  TierGuard guard(tier);
  return core::Manthan3(options).synthesize(f, manager);
}

TEST(SimdDifferential, SynthesisTrajectoryIsBitIdenticalAcrossTiers) {
  const Tier best = best_supported_tier();
  if (best == Tier::kScalar) GTEST_SKIP() << "no vector tier on this CPU";
  for (const std::uint64_t seed : {5ull, 23ull}) {
    const dqbf::DqbfFormula f = testutil::small_planted(seed);
    core::Manthan3Options options;
    options.time_limit_seconds = 30.0;
    aig::Aig scalar_manager;
    const core::SynthesisResult scalar =
        run_under(Tier::kScalar, f, options, scalar_manager);
    aig::Aig vector_manager;
    const core::SynthesisResult vectorized =
        run_under(best, f, options, vector_manager);
    ASSERT_EQ(scalar.status, vectorized.status) << tier_name(best);
    EXPECT_EQ(scalar.vector.functions, vectorized.vector.functions)
        << tier_name(best);
    testutil::expect_same_stats(scalar.stats, vectorized.stats,
                                {core::StatClass::kDeterministic},
                                tier_name(best));
    if (scalar.status == core::SynthesisStatus::kRealizable) {
      testutil::expect_certified(f, vector_manager, vectorized);
    }
  }
}

TEST(SimdDifferential, ParallelLearningTrajectoryMatchesAcrossTiers) {
  const Tier best = best_supported_tier();
  if (best == Tier::kScalar) GTEST_SKIP() << "no vector tier on this CPU";
  // Counterexample-heavy instance so the streaming-append + adaptive-refit
  // paths actually run; 4 workers checks the tier flip is also safe under
  // the scheduler fan-out.
  workloads::PlantedParams params{12, 6, 4, 6, 80, 7};
  params.nested_deps = true;
  params.dep_size_max = 10;
  const dqbf::DqbfFormula f = workloads::gen_planted(params);
  core::Manthan3Options options;
  options.time_limit_seconds = 30.0;
  options.learn_workers = 4;
  aig::Aig scalar_manager;
  const core::SynthesisResult scalar =
      run_under(Tier::kScalar, f, options, scalar_manager);
  aig::Aig vector_manager;
  const core::SynthesisResult vectorized =
      run_under(best, f, options, vector_manager);
  ASSERT_EQ(scalar.status, vectorized.status);
  EXPECT_EQ(scalar.vector.functions, vectorized.vector.functions);
  testutil::expect_same_stats(scalar.stats, vectorized.stats,
                              {core::StatClass::kDeterministic}, "4-worker");
}

}  // namespace
}  // namespace manthan::util::simd
