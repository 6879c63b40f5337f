// Ablation — what does privacy cost? The same environment mined by
// (a) the non-private Majority-Rule baseline,
// (b) Secure-Majority-Rule with k = 1 (crypto machinery, minimal gating),
// (c) Secure-Majority-Rule with the paper's k = 10.
// Reported: steps to 90% recall, messages delivered, and data-dependent
// reveals — separating the cost of the oblivious-counter machinery from the
// cost of the k-gate itself.
//
//   ./ablation_secure_overhead [--resources=32] [--local=500]
//                               [--threads=N] [--shards=N] [--json[=PATH]]
//                               [--trace_record=PATH] [--trace_replay=PATH]
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace kgrid;
  const Cli cli(argc, argv);
  const auto resources =
      static_cast<std::size_t>(cli.get_int("resources", 32));
  const auto local = static_cast<std::size_t>(cli.get_int("local", 500));
  const std::size_t threads = bench::threads_arg(cli);
  const int shards = bench::shards_arg(cli);
  sim::Executor pool(threads);
  bench::JsonSink sink(cli, "ablation_secure_overhead");
  sink.arg("resources", obs::Json(resources));
  sink.arg("local", obs::Json(local));
  sink.arg("threads", obs::Json(threads));
  sink.arg("shards", obs::Json(static_cast<std::int64_t>(shards)));
  sink.set_executor(&pool);
  bench::TraceSource trace(cli, "ablation_secure_overhead");

  core::GridEnvConfig env_cfg;
  env_cfg.n_resources = resources;
  env_cfg.seed = 1234;
  env_cfg.quest = data::QuestParams::preset("T10I4");
  env_cfg.quest.n_transactions = resources * local;
  env_cfg.quest.n_items = 100;
  env_cfg.quest.n_patterns = 40;
  env_cfg.delay_lo = 0.5;
  env_cfg.delay_hi = 2.0;
  const arm::MiningThresholds thresholds{0.15, 0.8};

  std::printf("# Ablation: cost of privacy (%zu resources, %zu tx local)\n",
              resources, local);
  std::printf("%-24s %14s %14s %14s\n", "variant", "steps-to-90%", "messages",
              "reveals");

  {
    majority::MajorityRuleConfig base;
    base.min_freq = thresholds.min_freq;
    base.min_conf = thresholds.min_conf;
    base.arrivals_per_step = 0;
    core::BaselineGrid grid(env_cfg, base,
                            trace.env("workload", [&] {
                              return core::make_grid_env(env_cfg);
                            }),
                            threads, trace.begin("variant=majority-rule"),
                            shards);
    sink.attach(grid.engine());
    const auto reference = grid.env().reference(thresholds);
    auto recall = [&] { return grid.average_recall(reference); };
    const std::size_t steps = bench::steps_to_target(grid, recall, 0.9, 400);
    trace.end(grid.engine());
    std::printf("%-24s %14zu %14llu %14s\n", "majority-rule (plain)", steps,
                static_cast<unsigned long long>(
                    grid.engine().messages_delivered()),
                "n/a");
    std::fflush(stdout);
    obs::Json row = obs::Json::object();
    row.set("variant", "majority-rule");
    row.set("steps_to_recall", steps);
    row.set("messages_delivered", grid.engine().messages_delivered());
    sink.row(std::move(row));
  }

  for (std::int64_t k : {1, 10}) {
    core::SecureGridConfig cfg;
    cfg.env = env_cfg;
    cfg.secure.min_freq = thresholds.min_freq;
    cfg.secure.min_conf = thresholds.min_conf;
    cfg.secure.k = k;
    cfg.secure.arrivals_per_step = 0;
    cfg.attach_monitor = true;
    cfg.executor = &pool;
    cfg.shards = shards;
    cfg.trace = trace.begin("variant=secure/k=" + std::to_string(k));
    core::SecureGrid grid(cfg, trace.env("workload", [&] {
      return core::make_grid_env(cfg.env);
    }));
    sink.attach(grid.engine());
    const auto reference = grid.env().reference(thresholds);
    auto recall = [&] { return grid.average_recall(reference); };
    const std::size_t steps = bench::steps_to_target(grid, recall, 0.9, 400);
    trace.end(grid.engine());
    char name[64];
    std::snprintf(name, sizeof name, "secure-majority-rule k=%lld",
                  static_cast<long long>(k));
    std::printf("%-24s %14zu %14llu %14llu\n", name, steps,
                static_cast<unsigned long long>(
                    grid.engine().messages_delivered()),
                static_cast<unsigned long long>(grid.monitor().grants()));
    std::fflush(stdout);
    obs::Json row = obs::Json::object();
    row.set("variant", "secure-majority-rule");
    row.set("k", k);
    row.set("steps_to_recall", steps);
    row.set("messages_delivered", grid.engine().messages_delivered());
    row.set("monitor_grants", grid.monitor().grants());
    row.set("protocol", grid.protocol_stats());
    sink.row(std::move(row));
  }
  if (trace.active()) sink.section("trace", trace.section());
  const bool trace_ok = trace.finish();
  return sink.write() && trace_ok ? 0 : 1;
}
