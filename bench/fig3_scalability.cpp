// Figure 3 — scalability of Secure-Majority-Rule: steps to 90% global
// recall vs. number of resources, one series per vote *significance*
// (sum / (lambda * count) - 1). Following the paper, the experiment runs the
// single-itemset special case: every resource votes on one candidate whose
// local frequency is lambda * (1 + significance), and recall is the
// fraction of resources whose output answer matches the global truth.
//
// Expected shape (the paper's locality result): beyond some constant number
// of resources the step count stops growing; the closer the significance to
// zero, the more steps are needed.
//
// The bench also sweeps the executor width on a fixed secure-Paillier grid
// (the `threads_sweep` section of the JSON artifact): the same protocol
// outcome at every width, with wall time as the only variable — the
// parallel-executor speedup figure (EXPERIMENTS.md).
//
//   ./fig3_scalability [--max_resources=512] [--local=1000] [--k=10]
//                      [--threads=N] [--shards=N]
//                      [--sweep_steps=10] [--paper] [--json[=PATH]]
//                      [--trace_record=PATH] [--trace_replay=PATH]
//                      [--trace_schedule=KEY]
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace kgrid;

/// Hand-built environment: BA overlay, WAN-ish delays, and local databases
/// whose single-item frequency realizes the requested significance exactly.
core::GridEnv single_itemset_env(std::size_t n, std::size_t local,
                                 double lambda, double significance,
                                 std::uint64_t seed,
                                 bool path_topology = false,
                                 bool with_global = false) {
  Rng rng(seed);
  // The threads sweep forces a path so every degree stays <= 2: its counters
  // must fit a 512-bit Paillier modulus (degree + 5 packed fields).
  net::Graph topology = (n > 3 && !path_topology)
                            ? net::barabasi_albert(n, 2, rng)
                            : net::path(n);
  core::GridEnv env{net::spanning_tree(topology, 0),
                    net::LinkDelays(seed ^ 0xabcdef, 0.5, 2.0),
                    data::Database{},
                    {},
                    {}};
  const double p = lambda * (1.0 + significance);
  data::TransactionId id = 0;
  // The global database is only read by the env-trace recorder (and by
  // tests); at fig3 scale it is n*local transactions per cell, so skip it
  // unless a trace is being recorded.
  if (with_global) env.global.reserve(n * local);
  env.initial.reserve(n);
  env.arrivals.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    data::Database part;
    std::vector<data::Transaction> stream;
    part.reserve(local / 2);
    stream.reserve(local - local / 2);
    // Bernoulli(p) votes: local sample frequencies scatter around p, so at
    // low significance a sizeable fraction of resources is locally on the
    // wrong side of the threshold and must aggregate neighbours' votes —
    // the regime where locality and significance matter. Half the votes
    // arrive during the run: the paper's experiments all grow the database
    // while mining ("incrementing every resource with twenty additional
    // transactions at each step"), and that trickle is what keeps
    // below-threshold edges forwarding.
    for (std::size_t i = 0; i < local; ++i) {
      const bool vote = rng.bernoulli(p);
      const data::Transaction t{id++,
                                vote ? data::Itemset{0} : data::Itemset{1}};
      if (with_global) env.global.append(t);
      if (i < local / 2) part.append(t);
      else stream.push_back(t);
    }
    env.initial.push_back(std::move(part));
    env.arrivals.push_back(std::move(stream));
  }
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool paper = cli.has("paper");
  const auto max_resources = static_cast<std::size_t>(
      cli.get_int("max_resources", paper ? 4096 : 512));
  const auto local = static_cast<std::size_t>(cli.get_int("local", 100));
  const auto k = cli.get_int("k", 10);
  const double lambda = 0.5;
  const std::size_t threads = kgrid::bench::threads_arg(cli);
  const int shards = kgrid::bench::shards_arg(cli);
  sim::Executor pool(threads);
  kgrid::bench::JsonSink sink(cli, "fig3_scalability");
  sink.arg("max_resources", kgrid::obs::Json(max_resources));
  sink.arg("local", kgrid::obs::Json(local));
  sink.arg("k", kgrid::obs::Json(k));
  sink.arg("lambda", kgrid::obs::Json(lambda));
  sink.arg("threads", kgrid::obs::Json(threads));
  sink.arg("shards", kgrid::obs::Json(static_cast<std::int64_t>(shards)));
  sink.arg("paper", kgrid::obs::Json(paper));
  sink.set_executor(&pool);
  kgrid::bench::TraceSource trace(cli, "fig3_scalability");

  std::printf("# Figure 3: steps to 98%% recall vs resources "
              "(single itemset, lambda=%.2f, k=%lld)\n",
              lambda, static_cast<long long>(k));
  std::printf("(cells: steps-to-98%% / messages-per-resource)\n%12s", "resources");
  for (double sig : {0.03, 0.10, 0.30}) std::printf("  sig=%-8.2f", sig);
  std::printf("\n");

  for (std::size_t n = 32; n <= max_resources; n *= 2) {
    std::printf("%12zu", n);
    for (double sig : {0.03, 0.10, 0.30}) {
      core::SecureGridConfig cfg;
      cfg.env.n_resources = n;
      cfg.env.seed = 1000 + n;
      cfg.env.quest.n_items = 2;  // item 0 = the vote, item 1 = filler
      cfg.secure.n_items = 1;     // vote only on candidate {} => {0}
      cfg.secure.min_freq = lambda;
      cfg.secure.min_conf = 0.8;
      cfg.secure.k = k;
      cfg.secure.count_budget = 100;
      cfg.secure.candidate_period = 1;  // sample the output every step
      cfg.secure.arrivals_per_step = 1;  // the paper's dynamic trickle
      cfg.executor = &pool;  // one pool shared by every grid in the series
      cfg.shards = shards;

      char cell_key[32];
      std::snprintf(cell_key, sizeof cell_key, "n=%zu/sig=%.2f", n, sig);
      cfg.trace = trace.begin(cell_key);
      core::SecureGrid grid(cfg, trace.env(cell_key, [&] {
        return single_itemset_env(n, local, lambda, sig, cfg.env.seed,
                                  /*path_topology=*/false,
                                  /*with_global=*/trace.active());
      }));
      sink.attach(grid.engine());
      const arm::Candidate vote = arm::frequency_candidate({0});
      auto recall = [&grid, &vote] {
        std::size_t right = 0;
        for (net::NodeId u = 0; u < grid.size(); ++u)
          right += grid.resource(u).broker().output_answer(vote);
        return static_cast<double>(right) / static_cast<double>(grid.size());
      };
      const std::size_t steps =
          kgrid::bench::steps_to_target(grid, recall, 0.98, 400, 1);
      trace.end(grid.engine());
      const auto msgs_per_resource =
          grid.engine().messages_delivered() / grid.size();
      char cell[32];
      if (steps > 400)
        std::snprintf(cell, sizeof cell, ">400/%llu",
                      static_cast<unsigned long long>(msgs_per_resource));
      else
        std::snprintf(cell, sizeof cell, "%zu/%llu", steps,
                      static_cast<unsigned long long>(msgs_per_resource));
      std::printf("  %-12s", cell);
      std::fflush(stdout);
      kgrid::obs::Json row = kgrid::obs::Json::object();
      row.set("resources", n);
      row.set("significance", sig);
      row.set("steps_to_recall", steps);
      row.set("converged", steps <= 400);
      row.set("messages_delivered", grid.engine().messages_delivered());
      row.set("messages_per_resource", msgs_per_resource);
      row.set("protocol", grid.protocol_stats());
      sink.row(std::move(row));
    }
    std::printf("\n");
  }

  // --threads sweep: one fixed secure-Paillier grid rerun at several pool
  // widths. The outcome columns must be identical on every row (the
  // determinism contract); wall_s/speedup is the executor's contribution.
  // A path overlay keeps every counter within 512-bit Paillier capacity.
  {
    const auto sweep_steps =
        static_cast<std::size_t>(cli.get_int("sweep_steps", 10));
    std::printf("\n# threads sweep: secure Paillier, 16 resources, 512-bit "
                "modulus, %zu steps\n", sweep_steps);
    std::printf("%8s %10s %9s %12s %10s %10s\n", "threads", "wall_s",
                "speedup", "messages", "sfe_sends", "reveals");
    kgrid::obs::Json sweep = kgrid::obs::Json::array();
    double wall_t1 = 0.0;
    for (const std::size_t t : {1u, 2u, 4u, 8u}) {
      core::SecureGridConfig cfg;
      cfg.env.n_resources = 16;
      cfg.env.seed = 2024;
      cfg.env.quest.n_items = 2;
      cfg.secure.n_items = 1;
      cfg.secure.min_freq = lambda;
      cfg.secure.k = 4;
      cfg.secure.candidate_period = 1;
      cfg.secure.arrivals_per_step = 1;
      cfg.backend = hom::Backend::kPaillier;
      cfg.paillier_bits = 512;
      cfg.threads = t;
      cfg.shards = shards;
      const std::string cell_key = "sweep/t" + std::to_string(t);
      cfg.trace = trace.begin(cell_key);
      kgrid::obs::Stopwatch wall;
      core::SecureGrid grid(cfg, trace.env("sweep", [&] {
        return single_itemset_env(16, local, lambda, 0.10, cfg.env.seed,
                                  /*path_topology=*/true,
                                  /*with_global=*/trace.active());
      }));
      grid.run_steps(sweep_steps);
      trace.end(grid.engine());
      const double wall_s = wall.seconds();
      if (t == 1) wall_t1 = wall_s;
      const double speedup = wall_s > 0.0 ? wall_t1 / wall_s : 0.0;
      const auto msgs = grid.engine().messages_delivered();
      std::uint64_t sfe_sends = 0, reveals = 0;
      for (net::NodeId u = 0; u < grid.size(); ++u) {
        sfe_sends += grid.resource(u).controller().stats().sfe_sends;
        reveals += grid.resource(u).controller().stats().gate_reveals;
      }
      kgrid::obs::Json protocol = grid.protocol_stats();
      std::printf("%8zu %10.3f %8.2fx %12llu %10llu %10llu\n", t, wall_s,
                  speedup, static_cast<unsigned long long>(msgs),
                  static_cast<unsigned long long>(sfe_sends),
                  static_cast<unsigned long long>(reveals));
      std::fflush(stdout);
      kgrid::obs::Json row = kgrid::obs::Json::object();
      row.set("threads", t);
      row.set("wall_s", wall_s);
      row.set("speedup", speedup);
      row.set("messages_delivered", msgs);
      row.set("protocol", std::move(protocol));
      sweep.push_back(std::move(row));
    }
    sink.section("threads_sweep", std::move(sweep));
  }
  if (trace.active()) sink.section("trace", trace.section());
  const bool trace_ok = trace.finish();
  return sink.write() && trace_ok ? 0 : 1;
}
