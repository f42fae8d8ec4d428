// Reduced Ordered Binary Decision Diagrams.
//
// Role in the paper's ecosystem: the function-manipulation engine behind
// elimination-based DQBF solving (HQS2) and behind definition extraction
// (PedantLite). Provides ite with unique/computed tables, Boolean
// quantification, composition, restriction, model counting and support.
//
// Nodes are immutable and hash-consed; ids 0/1 are the false/true
// terminals. Variables are external integer ids mapped to levels in
// declaration order (declare_order can impose a custom order up front).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/cnf.hpp"

namespace manthan::bdd {

using NodeId = std::uint32_t;

inline constexpr NodeId kFalseNode = 0;
inline constexpr NodeId kTrueNode = 1;

/// Thrown from inside BDD operations when the abort hook fires (node or
/// time budget exceeded); callers translate it into a limit/timeout
/// status. Without this, a single ite/exists call on a blown-up graph
/// could run unboundedly between external budget checks.
class BddAborted : public std::exception {
 public:
  const char* what() const noexcept override {
    return "BDD operation aborted by budget hook";
  }
};

class Bdd {
 public:
  Bdd();

  /// Fix the variable order up front (first = top). Variables not listed
  /// are appended below in order of first use.
  void declare_order(const std::vector<std::int32_t>& vars);

  /// Install an abort predicate, polled periodically from node creation;
  /// when it returns true, the in-flight operation throws BddAborted.
  void set_abort_check(std::function<bool()> check) {
    abort_check_ = std::move(check);
  }

  /// BDD for a single variable (creates it at the bottom of the current
  /// order on first use).
  NodeId var_node(std::int32_t var);
  NodeId literal(std::int32_t var, bool positive);

  static constexpr NodeId constant(bool value) {
    return value ? kTrueNode : kFalseNode;
  }

  // --- operations --------------------------------------------------------
  NodeId ite(NodeId f, NodeId g, NodeId h);
  NodeId not_op(NodeId f) { return ite(f, kFalseNode, kTrueNode); }
  NodeId and_op(NodeId f, NodeId g) { return ite(f, g, kFalseNode); }
  NodeId or_op(NodeId f, NodeId g) { return ite(f, kTrueNode, g); }
  NodeId xor_op(NodeId f, NodeId g) { return ite(f, not_op(g), g); }
  NodeId equiv_op(NodeId f, NodeId g) { return ite(f, g, not_op(g)); }
  NodeId implies_op(NodeId f, NodeId g) { return ite(f, g, kTrueNode); }

  /// Existential / universal quantification over a set of variables.
  NodeId exists(NodeId f, const std::vector<std::int32_t>& vars);
  NodeId forall(NodeId f, const std::vector<std::int32_t>& vars);

  /// Fix a variable to a constant.
  NodeId restrict_var(NodeId f, std::int32_t var, bool value);

  /// Substitute g for var in f: f[var := g].
  NodeId compose(NodeId f, std::int32_t var, NodeId g);

  /// Build the conjunction of a CNF formula (variable i of the formula is
  /// external id i).
  NodeId from_cnf(const cnf::CnfFormula& formula);

  /// Like from_cnf but aborts (returns nullopt) once the manager exceeds
  /// `max_nodes` — used to bound definition-extraction effort.
  std::optional<NodeId> from_cnf_limited(const cnf::CnfFormula& formula,
                                         std::size_t max_nodes);

  /// Variables in the support of f (external ids, sorted by level).
  std::vector<std::int32_t> support(NodeId f) const;

  /// Evaluate under a complete assignment (external id -> value).
  bool evaluate(NodeId f,
                const std::unordered_map<std::int32_t, bool>& values) const;

  /// Number of satisfying assignments over `num_vars` total variables
  /// (all declared variables must be within that space).
  double sat_count(NodeId f, std::size_t num_vars) const;

  /// One satisfying assignment (over support vars; others unconstrained).
  /// Returns false if f is the false terminal.
  bool pick_model(NodeId f,
                  std::unordered_map<std::int32_t, bool>& out) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  /// Count of distinct nodes in the graph of f (including terminals).
  std::size_t dag_size(NodeId f) const;

  std::int32_t var_of(NodeId n) const { return var_of_level_[nodes_[n].level]; }
  bool is_terminal(NodeId n) const { return n <= 1; }
  NodeId low(NodeId n) const { return nodes_[n].lo; }
  NodeId high(NodeId n) const { return nodes_[n].hi; }

 private:
  struct Node {
    std::uint32_t level;
    NodeId lo;
    NodeId hi;
  };
  /// One computed-table slot: ite(f, g, h) = r. f is never a terminal for
  /// a stored entry, so f == kFalseNode marks an empty slot.
  struct IteEntry {
    NodeId f = kFalseNode, g = kFalseNode, h = kFalseNode, r = kFalseNode;
  };
  /// Memo slot for quantify/restrict_level, live only while `stamp`
  /// equals memo_generation_.
  struct MemoEntry {
    std::uint32_t stamp = 0;
    NodeId result = kFalseNode;
  };

  static constexpr std::uint32_t kTerminalLevel = 0x7fffffff;
  static constexpr std::size_t kInitialSlots = 4096;

  std::uint32_t level_of(std::int32_t var);
  NodeId mk(std::uint32_t level, NodeId lo, NodeId hi);
  /// Slot holding node (level, lo, hi), or the empty slot where it belongs.
  std::size_t unique_slot(std::uint32_t level, NodeId lo, NodeId hi) const;
  /// Double the unique table (rehashing every node) and the computed table.
  void grow_tables();
  /// Invalidate the node-indexed memo; called once per top-level
  /// exists/forall/restrict_var.
  void begin_memo();
  NodeId quantify_vars(NodeId f, const std::vector<std::int32_t>& vars,
                       bool existential);
  NodeId quantify(NodeId f, std::uint32_t deepest, bool existential);
  NodeId restrict_level(NodeId f, std::uint32_t level, bool value);

  std::vector<Node> nodes_;
  // Unique table: open addressing with linear probing over node ids, slot
  // value kFalseNode = empty (terminals are never entered). Load <= 1/2.
  std::vector<NodeId> unique_;
  // Computed table for ite: direct-mapped and lossy. Losing an entry only
  // costs a recomputation, which finds its nodes already hash-consed and so
  // creates none: node ids and num_nodes() do not depend on the cache.
  std::vector<IteEntry> ite_cache_;
  std::vector<MemoEntry> memo_;
  std::uint32_t memo_generation_ = 0;
  std::vector<bool> quantified_level_;  // levels of the current quantify
  std::unordered_map<std::int32_t, std::uint32_t> level_of_var_;
  std::vector<std::int32_t> var_of_level_;
  std::function<bool()> abort_check_;
  std::uint64_t op_counter_ = 0;
};

/// Convert a BDD into an AIG (multiplexer per node); external variable ids
/// become AIG input ids. Used to hand BDD-extracted definitions to the
/// AIG-based synthesis pipeline.
aig::Ref bdd_to_aig(const Bdd& bdd, NodeId f, aig::Aig& manager);

}  // namespace manthan::bdd
