// service_mix and service_cold: one closed-loop client thread in front of
// an engine::Service with three workers.
//
// Every request is DQDIMACS text that the client parses and submits;
// every solved answer is imported into the client's own AIG manager.
// A request's latency runs from the start of parsing until the answer
// is usable, import included. Hits resolve inside submit(), so the client
// finishes them inline with no polling delay. Between requests the client
// times the host speed kernels (host_speed.hpp) every 100 ms, about 3% of
// its time; the workers keep solving meanwhile, so that time stays in the
// pass's wall time.
//
// The client never sends a request while an earlier request for the same
// spec is in flight, and sends the requests of one spec in their fixed
// order. Each request therefore finds the cache exactly as the earlier
// requests for its spec left it, so hits, reruns and verdicts do not
// depend on which worker finished first (and nothing ever coalesces).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <numeric>
#include <unordered_set>

#include "bench.hpp"
#include "host_speed.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/dqdimacs.hpp"
#include "dqbf/fingerprint.hpp"
#include "engine/service.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

using namespace manthan;

constexpr std::size_t kWorkers = 3;
/// Requests outstanding; the client plus the workers stay within 4 cores.
constexpr std::size_t kWindow = 4;
/// service_mix: each spec is sent this many times (the original, then
/// seeded clause- and literal-order shuffles).
constexpr std::size_t kCopies = 10;
/// Suites (50 specs each) per second of work, by workload.
constexpr double kMixSuitesPerSecond = 0.5;
constexpr double kColdSuitesPerSecond = 4.0;
constexpr std::uint64_t kSuiteSalt = 0x73657276696365ULL;  // "service"
constexpr std::uint64_t kOrderSalt = 0x6f72646572ULL;      // "order"
constexpr std::uint64_t kServiceSalt = 0x736565640aULL;

/// Uniform shuffle with the library's deterministic generator.
template <typename T>
void shuffle(std::vector<T>& items, util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

/// Rebuild `formula` with every variable v renamed to perm[v] and the
/// clauses and their literals shuffled.
dqbf::DqbfFormula rewrite(const dqbf::DqbfFormula& formula,
                          const std::vector<cnf::Var>& perm,
                          util::Rng& rng) {
  dqbf::DqbfFormula out;
  out.matrix().ensure_vars(formula.matrix().num_vars());
  for (const cnf::Var u : formula.universals()) out.add_universal(perm[u]);
  for (const dqbf::Existential& e : formula.existentials()) {
    std::vector<cnf::Var> deps;
    deps.reserve(e.deps.size());
    for (const cnf::Var d : e.deps) deps.push_back(perm[d]);
    out.add_existential(perm[e.var], std::move(deps));
  }
  std::vector<cnf::Clause> clauses = formula.matrix().clauses();
  shuffle(clauses, rng);
  for (cnf::Clause& clause : clauses) {
    for (cnf::Lit& lit : clause) {
      lit = cnf::Lit(perm[lit.var()], lit.negated());
    }
    shuffle(clause, rng);
    out.matrix().add_clause(std::move(clause));
  }
  return out;
}

std::vector<cnf::Var> identity(const dqbf::DqbfFormula& formula) {
  std::vector<cnf::Var> perm(formula.matrix().num_vars());
  for (std::size_t v = 0; v < perm.size(); ++v) {
    perm[v] = static_cast<cnf::Var>(v);
  }
  return perm;
}

/// A permutation that maps each quantifier block onto itself.
std::vector<cnf::Var> block_permutation(const dqbf::DqbfFormula& formula,
                                        util::Rng& rng) {
  std::vector<cnf::Var> perm = identity(formula);
  std::vector<cnf::Var> existentials;
  for (const dqbf::Existential& e : formula.existentials()) {
    existentials.push_back(e.var);
  }
  for (const std::vector<cnf::Var>& block :
       {formula.universals(), existentials}) {
    std::vector<cnf::Var> image = block;
    shuffle(image, rng);
    for (std::size_t i = 0; i < block.size(); ++i) perm[block[i]] = image[i];
  }
  return perm;
}

engine::ServiceOptions service_options(std::uint64_t seed) {
  engine::ServiceOptions options;
  options.workers = kWorkers;
  options.admission = engine::ServiceOptions::Admission::kSingle;
  options.single_engine = engine::EngineKind::kManthan3;
  options.default_time_limit_seconds = kWallCapSeconds;
  options.manthan3 = manthan3_options();
  options.seed = util::derive_seed(seed, kServiceSalt);
  return options;
}

class ServiceLoad final : public Workload {
 public:
  ServiceLoad(bool mix, std::uint64_t seed, double work)
      : mix_(mix),
        seed_(seed),
        suites_(static_cast<std::size_t>(std::max(
            1.0, std::round(work * (mix ? kMixSuitesPerSecond
                                        : kColdSuitesPerSecond))))) {}

  double setup() override {
    service_.reset();
    families_.clear();
    requests_.clear();
    double gen_seconds = 0.0;
    util::Rng rng(util::derive_seed(seed_, kOrderSalt));
    // Round c holds copy c of every spec. Rounds go out one after another,
    // each in its own shuffled order, so consecutive copies of a spec are
    // about a round apart and rarely wait for each other.
    std::vector<std::vector<Request>> rounds(mix_ ? kCopies : 1);
    std::unordered_set<dqbf::Fingerprint, dqbf::FingerprintHasher> seen;
    for (std::size_t i = 0; i < suites_; ++i) {
      const Clock::time_point gen_start = Clock::now();
      const std::vector<workloads::Instance> suite = workloads::standard_suite(
          {1, util::derive_seed(seed_, kSuiteSalt, i)});
      gen_seconds += seconds_since(gen_start);
      for (const workloads::Instance& instance : suite) {
        // Distinct specs only: two suite seeds can generate the same
        // spec, which would turn a cold request into a hit.
        if (!seen.insert(dqbf::fingerprint(instance.formula)).second) {
          continue;
        }
        const std::size_t spec = families_.size();
        families_.push_back(instance.family);
        rounds[0].push_back(
            {spec, dqbf::to_dqdimacs_string(instance.formula)});
        const std::vector<cnf::Var> same = identity(instance.formula);
        for (std::size_t c = 1; c < rounds.size(); ++c) {
          rounds[c].push_back({spec, dqbf::to_dqdimacs_string(rewrite(
                                         instance.formula, same, rng))});
        }
      }
    }
    for (std::vector<Request>& round : rounds) {
      shuffle(round, rng);
      for (Request& request : round) requests_.push_back(std::move(request));
    }
    rewind();
    return gen_seconds;
  }

  // Every pass starts on an empty cache.
  void rewind() override {
    service_.reset();
    service_ = std::make_unique<engine::Service>(service_options(seed_));
  }

  Pass run() override {
    Pass pass;
    pass.workers = service_->worker_count();
    const std::size_t n = requests_.size();
    pass.outcomes.assign(n, Outcome{});
    sent_.assign(n, dqbf::DqbfFormula{});
    vectors_.assign(n, dqbf::HenkinVector{});
    client_ = std::make_unique<aig::Aig>();

    struct Pending {
      std::size_t request;
      Clock::time_point start;
      std::shared_future<engine::ServiceResponse> future;
    };
    std::vector<Pending> window;
    std::vector<char> in_flight(families_.size(), 0);
    const auto ready = [](const Pending& p) {
      return p.future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    };
    const auto finish = [&](const Pending& p) {
      const engine::ServiceResponse& response = p.future.get();
      if (response.solved()) {
        obs::Span span("aig.import", "bench");
        vectors_[p.request] = response.functions->import_into(*client_);
      }
      Outcome& outcome = pass.outcomes[p.request];
      outcome.latency_s = seconds_since(p.start);
      outcome.status = response.status;
      outcome.cache_hit = response.cache_hit;
      outcome.solved = response.solved();
      outcome.counterexamples = response.stats.counterexamples;
      outcome.repairs = response.stats.repairs;
      const Request& request = requests_[p.request];
      classify(outcome, response.certified, families_[request.spec]);
      if (response.cancelled) mark_failed(outcome, "cancelled");
      if (!response.cache_hit) {
        pass.engine.add(response.status, response.stats);
      }
      in_flight[request.spec] = 0;
    };
    // Finish every completed request; true if there was one.
    const auto sweep = [&]() {
      const auto done = std::stable_partition(
          window.begin(), window.end(),
          [&](const Pending& p) { return !ready(p); });
      for (auto it = done; it != window.end(); ++it) finish(*it);
      const bool any = done != window.end();
      window.erase(done, window.end());
      return any;
    };
    const auto finish_one = [&]() {
      while (!sweep()) {
        window.front().future.wait_for(std::chrono::microseconds(100));
      }
    };

    // Unsent requests in order. The next one sent is the earliest whose
    // spec has nothing in flight, so requests of one spec keep their
    // order while the others keep the workers busy.
    std::deque<std::size_t> unsent(n);
    std::iota(unsent.begin(), unsent.end(), std::size_t{0});
    SpeedMeter meter;
    const Clock::time_point start = Clock::now();
    while (!unsent.empty()) {
      meter.poll();
      sweep();
      const auto next = std::find_if(
          unsent.begin(), unsent.end(),
          [&](std::size_t r) { return !in_flight[requests_[r].spec]; });
      if (window.size() >= kWindow || next == unsent.end()) {
        finish_one();
        continue;
      }
      const std::size_t r = *next;
      unsent.erase(next);
      Pending pending{r, Clock::now(), {}};
      {
        obs::Span span("dqbf.parse", "bench");
        sent_[r] = dqbf::parse_dqdimacs_string(requests_[r].text);
      }
      {
        obs::Span span("engine.submit", "bench");
        pending.future = service_->submit(sent_[r]);
      }
      in_flight[requests_[r].spec] = 1;
      if (ready(pending)) {
        finish(pending);
      } else {
        window.push_back(std::move(pending));
      }
    }
    while (!window.empty()) finish_one();
    pass.wall_s = seconds_since(start);
    meter.sample();
    pass.speed = meter.take();
    pass.reference_solve_s = meter.medians().solve_s;
    pass.reference_walk_s = meter.medians().walk_s;

    const engine::ServiceStats stats = service_->stats();
    const auto count = [](std::size_t v) { return static_cast<double>(v); };
    pass.layer["engine.hit_ratio"] =
        count(stats.tier1_hits) / count(std::max<std::size_t>(1, n));
    pass.layer["engine.coalesced"] = count(stats.coalesced);
    pass.layer["engine.completed"] = count(stats.completed);
    pass.layer["engine.reruns"] =
        count(stats.completed) - count(families_.size());
    pass.layer["engine.tier2_hits"] =
        count(stats.analysis.unique_hits + stats.analysis.dependency_hits);
    pass.layer["engine.cancelled"] = count(stats.cancelled);
    // The client's manager holds every imported answer.
    pass.layer["aig.peak_mb"] = 1e-6 * count(client_->node_bytes());
    return pass;
  }

  void check(Pass& pass) override {
    for (std::size_t r = 0; r < requests_.size(); ++r) {
      Outcome& outcome = pass.outcomes[r];
      if (!outcome.solved) continue;
      const dqbf::CertificateResult cert =
          dqbf::check_certificate(sent_[r], *client_, vectors_[r]);
      if (cert.status != dqbf::CertificateStatus::kValid) {
        mark_failed(outcome, std::string("certificate rejected (") +
                                 (outcome.cache_hit ? "hit" : "miss") + ")");
      }
    }
  }

  void traced_extras() override {
    for (const dqbf::DqbfFormula& formula : sent_) {
      obs::Span span("dqbf.canonicalize", "bench");
      (void)dqbf::fingerprint(formula);
    }
  }

  std::map<std::string, std::string> describe() const override {
    return {{"suites", std::to_string(suites_)},
            {"distinct_specs", std::to_string(families_.size())},
            {"requests", std::to_string(requests_.size())},
            {"copies_per_spec", std::to_string(mix_ ? kCopies : 1)},
            {"workers", std::to_string(kWorkers)},
            {"window", std::to_string(kWindow)},
            {"admission", "single"},
            {"engine", engine::engine_name(engine::EngineKind::kManthan3)}};
  }

 private:
  struct Request {
    std::size_t spec;
    std::string text;
  };

  bool mix_;
  std::uint64_t seed_;
  std::size_t suites_;
  std::vector<std::string> families_;  // per distinct spec
  std::vector<Request> requests_;      // in submission order
  std::unique_ptr<engine::Service> service_;
  // Last pass: the formula each request sent and its imported answer.
  std::unique_ptr<aig::Aig> client_;
  std::vector<dqbf::DqbfFormula> sent_;
  std::vector<dqbf::HenkinVector> vectors_;
};

}  // namespace

std::unique_ptr<Workload> make_service(bool mix, std::uint64_t seed,
                                       double work) {
  return std::make_unique<ServiceLoad>(mix, seed, work);
}

int check_renamed_hits(std::uint64_t seed) {
  engine::Service service(service_options(seed));
  util::Rng rng(util::derive_seed(seed, kOrderSalt));
  int hits = 0;
  int bad = 0;
  for (const workloads::Instance& instance :
       workloads::standard_suite({1, util::derive_seed(seed, kSuiteSalt)})) {
    aig::Aig manager;
    if (!service.solve(instance.formula, manager).solved()) continue;
    const dqbf::DqbfFormula renamed = dqbf::parse_dqdimacs_string(
        dqbf::to_dqdimacs_string(rewrite(
            instance.formula, block_permutation(instance.formula, rng), rng)));
    const engine::ServiceResult result = service.solve(renamed, manager);
    if (!result.response.cache_hit) continue;
    ++hits;
    const dqbf::CertificateResult cert =
        dqbf::check_certificate(renamed, manager, result.vector);
    if (cert.status != dqbf::CertificateStatus::kValid) {
      ++bad;
      std::printf("renamed hit rejected: %s\n", instance.name.c_str());
    }
  }
  std::printf("renamed hits: %d, rejected by check_certificate: %d\n", hits,
              bad);
  return bad;
}

}  // namespace perfbench
