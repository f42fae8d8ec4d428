// ROBDD engine: canonicity, operation semantics vs truth tables,
// quantification, composition, counting, and the AIG bridge.
#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"
#include "cnf/cnf.hpp"
#include "util/rng.hpp"

namespace manthan::bdd {
namespace {

TEST(Bdd, TerminalsAndLiterals) {
  Bdd b;
  EXPECT_EQ(b.constant(true), kTrueNode);
  EXPECT_EQ(b.constant(false), kFalseNode);
  const NodeId x = b.var_node(0);
  EXPECT_EQ(b.not_op(b.not_op(x)), x);
  EXPECT_EQ(b.literal(0, true), x);
  EXPECT_EQ(b.not_op(x), b.literal(0, false));
}

TEST(Bdd, CanonicityViaHashConsing) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  // (x & y) built two different ways must be the same node.
  const NodeId a1 = b.and_op(x, y);
  const NodeId a2 = b.not_op(b.or_op(b.not_op(x), b.not_op(y)));
  EXPECT_EQ(a1, a2);
  // x xor y == (x & !y) | (!x & y)
  const NodeId x1 = b.xor_op(x, y);
  const NodeId x2 = b.or_op(b.and_op(x, b.not_op(y)),
                            b.and_op(b.not_op(x), y));
  EXPECT_EQ(x1, x2);
}

TEST(Bdd, EvaluateAgreesWithSemantics) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId z = b.var_node(2);
  const NodeId f = b.ite(x, y, z);
  for (int bits = 0; bits < 8; ++bits) {
    std::unordered_map<std::int32_t, bool> in{
        {0, (bits & 1) != 0}, {1, (bits & 2) != 0}, {2, (bits & 4) != 0}};
    EXPECT_EQ(b.evaluate(f, in), in[0] ? in[1] : in[2]);
  }
}

TEST(Bdd, TautologyIsTrueNode) {
  Bdd b;
  const NodeId x = b.var_node(0);
  EXPECT_EQ(b.or_op(x, b.not_op(x)), kTrueNode);
  EXPECT_EQ(b.and_op(x, b.not_op(x)), kFalseNode);
}

TEST(Bdd, ExistsCollapsesVariable) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId f = b.and_op(x, y);
  EXPECT_EQ(b.exists(f, {0}), y);
  EXPECT_EQ(b.exists(f, {0, 1}), kTrueNode);
  EXPECT_EQ(b.forall(f, {0}), kFalseNode);
  const NodeId g = b.or_op(x, y);
  EXPECT_EQ(b.forall(g, {0}), y);
}

TEST(Bdd, RestrictMatchesCofactor) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId f = b.xor_op(x, y);
  EXPECT_EQ(b.restrict_var(f, 0, true), b.not_op(y));
  EXPECT_EQ(b.restrict_var(f, 0, false), y);
}

TEST(Bdd, ComposeSemantics) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId z = b.var_node(2);
  // f = x & y; x := (y | z)  =>  (y|z) & y == y
  const NodeId f = b.and_op(x, y);
  EXPECT_EQ(b.compose(f, 0, b.or_op(y, z)), y);
}

TEST(Bdd, SupportListsVariables) {
  Bdd b;
  b.declare_order({4, 2, 9});
  const NodeId f = b.and_op(b.var_node(4), b.xor_op(b.var_node(2),
                                                    b.var_node(9)));
  // Support is reported in level (declaration) order.
  EXPECT_EQ(b.support(f), (std::vector<std::int32_t>{4, 2, 9}));
  EXPECT_TRUE(b.support(kTrueNode).empty());
}

TEST(Bdd, SatCount) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  EXPECT_DOUBLE_EQ(b.sat_count(b.and_op(x, y), 2), 1.0);
  EXPECT_DOUBLE_EQ(b.sat_count(b.or_op(x, y), 2), 3.0);
  EXPECT_DOUBLE_EQ(b.sat_count(b.xor_op(x, y), 2), 2.0);
  EXPECT_DOUBLE_EQ(b.sat_count(kTrueNode, 2), 4.0);
  EXPECT_DOUBLE_EQ(b.sat_count(kFalseNode, 2), 0.0);
  // Extra unconstrained variables double the count.
  EXPECT_DOUBLE_EQ(b.sat_count(b.and_op(x, y), 4), 4.0);
}

TEST(Bdd, PickModelSatisfies) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId f = b.and_op(b.not_op(x), y);
  std::unordered_map<std::int32_t, bool> model;
  ASSERT_TRUE(b.pick_model(f, model));
  EXPECT_TRUE(b.evaluate(f, model));
  EXPECT_FALSE(b.pick_model(kFalseNode, model));
}

TEST(Bdd, FromCnfSemantics) {
  cnf::CnfFormula f(3);
  f.add_clause({cnf::pos(0), cnf::neg(1)});
  f.add_clause({cnf::pos(1), cnf::pos(2)});
  Bdd b;
  const NodeId node = b.from_cnf(f);
  for (int bits = 0; bits < 8; ++bits) {
    cnf::Assignment a(3);
    std::unordered_map<std::int32_t, bool> in;
    for (int v = 0; v < 3; ++v) {
      const bool value = ((bits >> v) & 1) != 0;
      a.set(v, value);
      in[v] = value;
    }
    EXPECT_EQ(b.evaluate(node, in), f.satisfied_by(a));
  }
}

TEST(Bdd, FromCnfLimitedAborts) {
  // A formula whose BDD has exponentially many nodes under the identity
  // order would exceed a tiny budget; use several xor constraints.
  cnf::CnfFormula f(12);
  for (int i = 0; i + 1 < 12; i += 2) {
    f.add_clause({cnf::pos(i), cnf::pos(i + 1)});
    f.add_clause({cnf::neg(i), cnf::neg(i + 1)});
  }
  Bdd b;
  EXPECT_FALSE(b.from_cnf_limited(f, 4).has_value());
  Bdd b2;
  EXPECT_TRUE(b2.from_cnf_limited(f, 100000).has_value());
}

TEST(Bdd, DagSizeCountsNodes) {
  Bdd b;
  const NodeId x = b.var_node(0);
  EXPECT_EQ(b.dag_size(kTrueNode), 1u);
  EXPECT_EQ(b.dag_size(x), 3u);  // node + two terminals
}

TEST(Bdd, DeclareOrderRespected) {
  Bdd b;
  b.declare_order({5, 3, 1});
  // Top variable of a conjunction is the first declared one.
  const NodeId f = b.and_op(b.var_node(1), b.var_node(5));
  EXPECT_EQ(b.var_of(f), 5);
}

// Brute-force quantification over `vars` by enumerating their values.
bool brute_quantify(const Bdd& b, NodeId f,
                    std::unordered_map<std::int32_t, bool> in,
                    const std::vector<std::int32_t>& vars, bool existential) {
  for (std::uint32_t bits = 0; bits < (1u << vars.size()); ++bits) {
    for (std::size_t k = 0; k < vars.size(); ++k) {
      in[vars[k]] = ((bits >> k) & 1) != 0;
    }
    if (b.evaluate(f, in) == existential) return existential;
  }
  return !existential;
}

// exists, forall and restrict_var share one node-indexed memo; every
// top-level call must start from a fresh generation, or a later call reads
// the previous call's results.
TEST(Bdd, MemoReuseAcrossCalls) {
  Bdd b;
  std::vector<NodeId> x;
  for (int v = 0; v < 6; ++v) x.push_back(b.var_node(v));
  // f = (x0 & x1) | (x3 ^ x4) | (x2 & !x5)
  const NodeId f = b.or_op(b.or_op(b.and_op(x[0], x[1]), b.xor_op(x[3], x[4])),
                           b.and_op(x[2], b.not_op(x[5])));
  const std::vector<std::int32_t> first{1, 3};
  const std::vector<std::int32_t> second{0, 4};
  const std::vector<std::int32_t> third{5, 1};
  const NodeId e1 = b.exists(f, first);
  const NodeId a = b.forall(f, second);
  const NodeId r = b.restrict_var(f, 2, true);
  const NodeId e2 = b.exists(f, third);
  // Pairwise distinct, so a result read from an earlier call's memo shows.
  const std::vector<NodeId> results{e1, a, r, e2};
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (std::size_t j = i + 1; j < results.size(); ++j) {
      EXPECT_NE(results[i], results[j]) << i << " vs " << j;
    }
  }
  for (int bits = 0; bits < 64; ++bits) {
    std::unordered_map<std::int32_t, bool> in;
    for (int v = 0; v < 6; ++v) in[v] = ((bits >> v) & 1) != 0;
    EXPECT_EQ(b.evaluate(e1, in), brute_quantify(b, f, in, first, true));
    EXPECT_EQ(b.evaluate(a, in), brute_quantify(b, f, in, second, false));
    EXPECT_EQ(b.evaluate(e2, in), brute_quantify(b, f, in, third, true));
    auto fixed = in;
    fixed[2] = true;
    EXPECT_EQ(b.evaluate(r, in), b.evaluate(f, fixed));
  }
}

// Pairs x_v <-> x_{v+9} blow up under the identity order: the build passes
// 4096 nodes, so the unique table rehashes twice and the computed table
// evicts. Node ids are hash-consed and never freed, so num_nodes() must
// match the count of an exact (never-evicting) computed table: 4305 after
// the build, 4713 after the exists. These counts are what the node caps of
// unique-definition extraction and HQS-lite are compared against.
TEST(Bdd, RehashEvictionKeepsNodeCount) {
  constexpr cnf::Var kVars = 18;
  util::Rng rng(2023);
  cnf::CnfFormula f(kVars);
  for (int c = 0; c < 2; ++c) {
    const auto v = static_cast<cnf::Var>(rng.next_below(kVars - 2));
    f.add_clause({cnf::Lit(v, rng.flip()), cnf::Lit(v + 1, rng.flip()),
                  cnf::Lit(v + 2, rng.flip())});
  }
  for (cnf::Var v = 0; v < kVars / 2; ++v) {
    f.add_clause({cnf::pos(v), cnf::neg(v + kVars / 2)});
    f.add_clause({cnf::neg(v), cnf::pos(v + kVars / 2)});
  }
  Bdd b;
  const NodeId root = b.from_cnf(f);
  EXPECT_EQ(b.num_nodes(), 4305u);

  cnf::CnfFormula reversed(kVars);
  for (auto it = f.clauses().rbegin(); it != f.clauses().rend(); ++it) {
    reversed.add_clause(*it);
  }
  Bdd b2;
  const NodeId root2 = b2.from_cnf(reversed);
  EXPECT_EQ(b.dag_size(root), b2.dag_size(root2));
  EXPECT_DOUBLE_EQ(b.sat_count(root, kVars), b2.sat_count(root2, kVars));

  std::unordered_map<std::int32_t, bool> in;
  cnf::Assignment a(kVars);
  for (std::uint32_t bits = 0; bits < (1u << kVars); ++bits) {
    for (cnf::Var v = 0; v < kVars; ++v) {
      in[v] = ((bits >> v) & 1) != 0;
      a.set(v, in[v]);
    }
    ASSERT_EQ(b.evaluate(root, in), f.satisfied_by(a)) << bits;
  }

  b.exists(root, {1, 4, 9, 12, 15});
  EXPECT_EQ(b.num_nodes(), 4713u);
}

TEST(BddAig, ConversionPreservesSemantics) {
  util::Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    // Random CNF -> BDD -> AIG; compare on all assignments.
    cnf::CnfFormula f(5);
    for (int c = 0; c < 8; ++c) {
      cnf::Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(cnf::Lit(
            static_cast<cnf::Var>(rng.next_below(5)), rng.flip()));
      }
      f.add_clause(clause);
    }
    Bdd b;
    const NodeId node = b.from_cnf(f);
    aig::Aig manager;
    const aig::Ref ref = bdd_to_aig(b, node, manager);
    for (int bits = 0; bits < 32; ++bits) {
      std::unordered_map<std::int32_t, bool> in;
      cnf::Assignment a(5);
      for (int v = 0; v < 5; ++v) {
        const bool value = ((bits >> v) & 1) != 0;
        in[v] = value;
        a.set(v, value);
      }
      EXPECT_EQ(manager.evaluate(ref, in), f.satisfied_by(a));
    }
  }
}

// Property: BDD ops agree with AIG simulation on random expressions.
TEST(BddProperty, RandomExpressionAgreement) {
  util::Rng rng(77);
  for (int round = 0; round < 15; ++round) {
    Bdd b;
    aig::Aig m;
    std::vector<NodeId> bp;
    std::vector<aig::Ref> ap;
    for (int i = 0; i < 5; ++i) {
      bp.push_back(b.var_node(i));
      ap.push_back(m.input(i));
    }
    for (int g = 0; g < 20; ++g) {
      const std::size_t i = rng.next_below(bp.size());
      const std::size_t j = rng.next_below(bp.size());
      switch (rng.next_below(3)) {
        case 0:
          bp.push_back(b.and_op(bp[i], bp[j]));
          ap.push_back(m.and_gate(ap[i], ap[j]));
          break;
        case 1:
          bp.push_back(b.or_op(bp[i], b.not_op(bp[j])));
          ap.push_back(m.or_gate(ap[i], aig::ref_not(ap[j])));
          break;
        default:
          bp.push_back(b.xor_op(bp[i], bp[j]));
          ap.push_back(m.xor_gate(ap[i], ap[j]));
          break;
      }
    }
    for (int bits = 0; bits < 32; ++bits) {
      std::unordered_map<std::int32_t, bool> in;
      for (int v = 0; v < 5; ++v) in[v] = ((bits >> v) & 1) != 0;
      EXPECT_EQ(b.evaluate(bp.back(), in), m.evaluate(ap.back(), in));
    }
  }
}

}  // namespace
}  // namespace manthan::bdd
