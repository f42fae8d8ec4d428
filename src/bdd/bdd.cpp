#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

namespace manthan::bdd {

namespace {

std::size_t hash3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  std::uint64_t h = (static_cast<std::uint64_t>(a) << 32 | b) *
                    0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h = (h + c) * 0xff51afd7ed558ccdULL;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

}  // namespace

Bdd::Bdd() : unique_(kInitialSlots), ite_cache_(kInitialSlots) {
  nodes_.push_back({kTerminalLevel, kFalseNode, kFalseNode});  // 0: false
  nodes_.push_back({kTerminalLevel, kTrueNode, kTrueNode});    // 1: true
}

void Bdd::declare_order(const std::vector<std::int32_t>& vars) {
  for (const std::int32_t v : vars) level_of(v);
}

std::uint32_t Bdd::level_of(std::int32_t var) {
  const auto it = level_of_var_.find(var);
  if (it != level_of_var_.end()) return it->second;
  const auto level = static_cast<std::uint32_t>(var_of_level_.size());
  level_of_var_.emplace(var, level);
  var_of_level_.push_back(var);
  return level;
}

std::size_t Bdd::unique_slot(std::uint32_t level, NodeId lo,
                             NodeId hi) const {
  const std::size_t mask = unique_.size() - 1;
  for (std::size_t i = hash3(level, lo, hi) & mask;; i = (i + 1) & mask) {
    const NodeId id = unique_[i];
    if (id == kFalseNode) return i;
    const Node& n = nodes_[id];
    if (n.level == level && n.lo == lo && n.hi == hi) return i;
  }
}

void Bdd::grow_tables() {
  unique_.assign(2 * unique_.size(), kFalseNode);
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    unique_[unique_slot(n.level, n.lo, n.hi)] = id;
  }
  std::vector<IteEntry> old(2 * ite_cache_.size());
  old.swap(ite_cache_);
  const std::size_t mask = ite_cache_.size() - 1;
  for (const IteEntry& e : old) {
    if (e.f != kFalseNode) ite_cache_[hash3(e.f, e.g, e.h) & mask] = e;
  }
}

NodeId Bdd::mk(std::uint32_t level, NodeId lo, NodeId hi) {
  if ((++op_counter_ & 0xfff) == 0 && abort_check_ && abort_check_()) {
    throw BddAborted();
  }
  if (lo == hi) return lo;
  const std::size_t slot = unique_slot(level, lo, hi);
  if (unique_[slot] != kFalseNode) return unique_[slot];
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({level, lo, hi});
  if (2 * (nodes_.size() - 2) > unique_.size()) {
    grow_tables();  // rehashes the new node too
  } else {
    unique_[slot] = id;
  }
  return id;
}

NodeId Bdd::var_node(std::int32_t var) {
  return mk(level_of(var), kFalseNode, kTrueNode);
}

NodeId Bdd::literal(std::int32_t var, bool positive) {
  const std::uint32_t level = level_of(var);
  return positive ? mk(level, kFalseNode, kTrueNode)
                  : mk(level, kTrueNode, kFalseNode);
}

NodeId Bdd::ite(NodeId f, NodeId g, NodeId h) {
  // Terminal cases.
  if (f == kTrueNode) return g;
  if (f == kFalseNode) return h;
  if (g == h) return g;
  if (g == kTrueNode && h == kFalseNode) return f;

  const std::size_t hash = hash3(f, g, h);
  const IteEntry& hit = ite_cache_[hash & (ite_cache_.size() - 1)];
  if (hit.f == f && hit.g == g && hit.h == h) return hit.r;

  const std::uint32_t top = std::min(
      {nodes_[f].level, nodes_[g].level, nodes_[h].level});
  const auto cofactor = [&](NodeId n, bool positive) {
    if (nodes_[n].level != top) return n;
    return positive ? nodes_[n].hi : nodes_[n].lo;
  };
  const NodeId hi = ite(cofactor(f, true), cofactor(g, true),
                        cofactor(h, true));
  const NodeId lo = ite(cofactor(f, false), cofactor(g, false),
                        cofactor(h, false));
  const NodeId result = mk(top, lo, hi);
  // The recursion may have grown the table: index it afresh.
  ite_cache_[hash & (ite_cache_.size() - 1)] = {f, g, h, result};
  return result;
}

void Bdd::begin_memo() {
  // Memoized calls only visit nodes that exist when they start.
  if (memo_.size() < nodes_.size()) memo_.resize(nodes_.size());
  if (++memo_generation_ == 0) {  // wrapped: drop every stale stamp
    std::fill(memo_.begin(), memo_.end(), MemoEntry{});
    memo_generation_ = 1;
  }
}

NodeId Bdd::quantify(NodeId f, std::uint32_t deepest, bool existential) {
  const Node n = nodes_[f];
  // Nothing quantified below the deepest quantified level (terminals
  // included).
  if (n.level > deepest) return f;
  if (memo_[f].stamp == memo_generation_) return memo_[f].result;
  const NodeId lo = quantify(n.lo, deepest, existential);
  const NodeId hi = quantify(n.hi, deepest, existential);
  NodeId result;
  if (quantified_level_[n.level]) {
    result = existential ? or_op(lo, hi) : and_op(lo, hi);
  } else {
    result = mk(n.level, lo, hi);
  }
  memo_[f] = {memo_generation_, result};
  return result;
}

NodeId Bdd::quantify_vars(NodeId f, const std::vector<std::int32_t>& vars,
                          bool existential) {
  if (vars.empty()) return f;
  std::uint32_t deepest = 0;
  for (const std::int32_t v : vars) deepest = std::max(deepest, level_of(v));
  quantified_level_.assign(var_of_level_.size(), false);
  for (const std::int32_t v : vars) quantified_level_[level_of(v)] = true;
  begin_memo();
  return quantify(f, deepest, existential);
}

NodeId Bdd::exists(NodeId f, const std::vector<std::int32_t>& vars) {
  return quantify_vars(f, vars, /*existential=*/true);
}

NodeId Bdd::forall(NodeId f, const std::vector<std::int32_t>& vars) {
  return quantify_vars(f, vars, /*existential=*/false);
}

NodeId Bdd::restrict_level(NodeId f, std::uint32_t level, bool value) {
  const Node n = nodes_[f];
  if (n.level > level) return f;  // terminals included
  if (memo_[f].stamp == memo_generation_) return memo_[f].result;
  NodeId result;
  if (n.level == level) {
    result = value ? n.hi : n.lo;
  } else {
    result = mk(n.level, restrict_level(n.lo, level, value),
                restrict_level(n.hi, level, value));
  }
  memo_[f] = {memo_generation_, result};
  return result;
}

NodeId Bdd::restrict_var(NodeId f, std::int32_t var, bool value) {
  const std::uint32_t level = level_of(var);
  begin_memo();
  return restrict_level(f, level, value);
}

NodeId Bdd::compose(NodeId f, std::int32_t var, NodeId g) {
  // f[var := g] == ite(g, f|var=1, f|var=0)
  return ite(g, restrict_var(f, var, true), restrict_var(f, var, false));
}

NodeId Bdd::from_cnf(const cnf::CnfFormula& formula) {
  return *from_cnf_limited(formula, std::numeric_limits<std::size_t>::max());
}

std::optional<NodeId> Bdd::from_cnf_limited(const cnf::CnfFormula& formula,
                                            std::size_t max_nodes) {
  // Declare variables in index order for a predictable default ordering.
  for (cnf::Var v = 0; v < formula.num_vars(); ++v) level_of(v);
  NodeId acc = kTrueNode;
  for (const cnf::Clause& clause : formula.clauses()) {
    NodeId c = kFalseNode;
    for (const cnf::Lit l : clause) {
      c = or_op(c, literal(l.var(), !l.negated()));
    }
    acc = and_op(acc, c);
    if (acc == kFalseNode) break;
    if (nodes_.size() > max_nodes) return std::nullopt;
  }
  return acc;
}

std::vector<std::int32_t> Bdd::support(NodeId f) const {
  std::vector<bool> visited(nodes_.size());
  std::vector<bool> in_support(var_of_level_.size());
  std::vector<NodeId> stack{f};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (is_terminal(n) || visited[n]) continue;
    visited[n] = true;
    in_support[nodes_[n].level] = true;
    stack.push_back(nodes_[n].lo);
    stack.push_back(nodes_[n].hi);
  }
  std::vector<std::int32_t> vars;
  for (std::size_t l = 0; l < in_support.size(); ++l) {
    if (in_support[l]) vars.push_back(var_of_level_[l]);
  }
  return vars;
}

bool Bdd::evaluate(
    NodeId f, const std::unordered_map<std::int32_t, bool>& values) const {
  NodeId n = f;
  while (!is_terminal(n)) {
    const auto it = values.find(var_of_level_[nodes_[n].level]);
    assert(it != values.end());
    n = it->second ? nodes_[n].hi : nodes_[n].lo;
  }
  return n == kTrueNode;
}

double Bdd::sat_count(NodeId f, std::size_t num_vars) const {
  // Count over the declared level space, then scale by variables outside
  // the declared order.
  const std::size_t declared = var_of_level_.size();
  std::unordered_map<NodeId, double> cache;
  // count(n) = models over levels strictly below n.level ... standard
  // "scaled at edges" formulation.
  const std::function<double(NodeId)> count = [&](NodeId n) -> double {
    if (n == kFalseNode) return 0.0;
    if (n == kTrueNode) return 1.0;
    const auto it = cache.find(n);
    if (it != cache.end()) return it->second;
    const Node& node = nodes_[n];
    const auto weight = [&](NodeId child) -> double {
      const std::uint32_t child_level =
          is_terminal(child) ? static_cast<std::uint32_t>(declared)
                             : nodes_[child].level;
      return count(child) *
             std::pow(2.0, static_cast<double>(child_level) -
                               static_cast<double>(node.level) - 1.0);
    };
    const double result = weight(node.lo) + weight(node.hi);
    cache.emplace(n, result);
    return result;
  };
  double total;
  if (is_terminal(f)) {
    total = (f == kTrueNode) ? std::pow(2.0, static_cast<double>(declared))
                             : 0.0;
  } else {
    total = count(f) *
            std::pow(2.0, static_cast<double>(nodes_[f].level));
  }
  // Variables beyond the declared order are unconstrained.
  assert(num_vars >= declared);
  return total * std::pow(2.0, static_cast<double>(num_vars - declared));
}

bool Bdd::pick_model(NodeId f,
                     std::unordered_map<std::int32_t, bool>& out) const {
  if (f == kFalseNode) return false;
  NodeId n = f;
  while (!is_terminal(n)) {
    const Node& node = nodes_[n];
    const bool go_high = node.hi != kFalseNode;
    out[var_of_level_[node.level]] = go_high;
    n = go_high ? node.hi : node.lo;
  }
  return true;
}

std::size_t Bdd::dag_size(NodeId f) const {
  std::vector<bool> visited(nodes_.size());
  std::vector<NodeId> stack{f};
  std::size_t count = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (visited[n]) continue;
    visited[n] = true;
    ++count;
    if (!is_terminal(n)) {
      stack.push_back(nodes_[n].lo);
      stack.push_back(nodes_[n].hi);
    }
  }
  return count;
}

aig::Ref bdd_to_aig(const Bdd& bdd, NodeId f, aig::Aig& manager) {
  std::unordered_map<NodeId, aig::Ref> memo;
  const std::function<aig::Ref(NodeId)> convert =
      [&](NodeId n) -> aig::Ref {
    if (n == kFalseNode) return aig::kFalseRef;
    if (n == kTrueNode) return aig::kTrueRef;
    const auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    const aig::Ref selector = manager.input(bdd.var_of(n));
    const aig::Ref result = manager.ite_gate(selector, convert(bdd.high(n)),
                                             convert(bdd.low(n)));
    memo.emplace(n, result);
    return result;
  };
  return convert(f);
}

}  // namespace manthan::bdd
