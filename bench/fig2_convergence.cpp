// Figure 2 — recall and precision of Secure-Majority-Rule vs. database
// scans, on the paper's three Quest databases (T5I2, T10I4, T20I6), with the
// paper's dynamics: 100 transactions counted per step, candidate generation
// every 5th step, 20 new transactions arriving per step. The non-private
// Majority-Rule baseline is printed alongside (the paper's "[20]"
// comparison: the secure algorithm needs ~3 scans where the baseline needs
// one).
//
// Paper scale: 2,000 resources x 10,000-transaction local databases.
// Default here: 32 x 500 (one core); --paper raises it.
//
//   ./fig2_convergence [--resources=32] [--local=500] [--k=10] [--scans=5]
//                      [--threads=N] [--shards=N] [--paper] [--json[=PATH]]
//                      [--trace_record=PATH] [--trace_replay=PATH]
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace kgrid;
  const Cli cli(argc, argv);
  const bool paper = cli.has("paper");
  const auto resources =
      static_cast<std::size_t>(cli.get_int("resources", paper ? 2000 : 24));
  const auto local =
      static_cast<std::size_t>(cli.get_int("local", paper ? 10000 : 800));
  const auto k = cli.get_int("k", 10);
  const auto scans = static_cast<std::size_t>(cli.get_int("scans", 4));
  const std::size_t threads = bench::threads_arg(cli);
  const int shards = bench::shards_arg(cli);
  sim::Executor pool(threads);
  bench::JsonSink sink(cli, "fig2_convergence");
  sink.arg("resources", obs::Json(resources));
  sink.arg("local", obs::Json(local));
  sink.arg("k", obs::Json(k));
  sink.arg("scans", obs::Json(scans));
  sink.arg("threads", obs::Json(threads));
  sink.arg("shards", obs::Json(static_cast<std::int64_t>(shards)));
  sink.arg("paper", obs::Json(paper));
  sink.set_executor(&pool);
  bench::TraceSource trace(cli, "fig2_convergence");

  std::printf("# Figure 2: recall/precision vs database scans "
              "(%zu resources, %zu tx local, k=%lld)\n",
              resources, local, static_cast<long long>(k));
  std::printf("%-6s %6s %14s %14s %16s %16s\n", "db", "scans", "sec-recall",
              "sec-precision", "base-recall", "base-precision");

  // MinFreq is chosen per database so the rule counts stay comparable
  // (denser data needs a higher threshold, as is standard when profiling
  // ARM algorithms).
  const std::pair<const char*, double> presets[] = {
      {"T5I2", 0.10}, {"T10I4", 0.15}, {"T20I6", 0.40}};
  for (const auto& [preset, min_freq] : presets) {
    core::SecureGridConfig cfg;
    cfg.env.n_resources = resources;
    cfg.env.seed = 97;
    cfg.env.quest = data::QuestParams::preset(preset);
    cfg.env.quest.n_transactions = resources * local;
    cfg.env.quest.n_items = 100;
    cfg.env.quest.n_patterns = 40;
    cfg.env.initial_fraction = 0.9;  // the rest arrives at 20 tx/step
    cfg.env.delay_lo = 0.5;
    cfg.env.delay_hi = 2.0;
    cfg.secure.min_freq = min_freq;
    cfg.secure.min_conf = 0.8;
    cfg.secure.k = k;
    cfg.secure.count_budget = 100;
    // The paper generates candidates on every 5th of the 100 steps a scan
    // takes (20 generations per scan); with 10 steps per scan here the
    // closest cadence is every step.
    cfg.secure.candidate_period = paper ? 5 : 1;
    cfg.secure.arrivals_per_step = 20;

    majority::MajorityRuleConfig base;
    base.min_freq = cfg.secure.min_freq;
    base.min_conf = cfg.secure.min_conf;
    base.count_budget = cfg.secure.count_budget;
    base.candidate_period = cfg.secure.candidate_period;
    base.arrivals_per_step = cfg.secure.arrivals_per_step;

    cfg.executor = &pool;
    cfg.shards = shards;
    // One environment for both grids; on replay it comes from the trace.
    // The secure engine carries the schedule hash (the baseline runs the
    // same workload but is a different protocol, hence a different trace).
    const std::string cell_key = std::string("db=") + preset;
    core::GridEnv env = trace.env(cell_key, [&] {
      return core::make_grid_env(cfg.env);
    });
    core::GridEnv base_env = env;
    cfg.trace = trace.begin(cell_key);
    core::SecureGrid secure(cfg, std::move(env));
    core::BaselineGrid baseline(cfg.env, base, std::move(base_env), threads,
                                nullptr, shards);
    sink.attach(secure.engine());
    sink.attach(baseline.engine());

    const std::size_t steps_per_scan = local / cfg.secure.count_budget;
    for (std::size_t half_scan = 1; half_scan <= 2 * scans; ++half_scan) {
      const std::size_t chunk = steps_per_scan / 2;
      secure.run_steps(chunk);
      baseline.run_steps(chunk);
      const auto reference = bench::reference_at(
          secure.env(), half_scan * chunk, cfg.secure.arrivals_per_step,
          {cfg.secure.min_freq, cfg.secure.min_conf});
      const double sec_recall = secure.average_recall(reference);
      const double sec_precision = secure.average_precision(reference);
      const double base_recall = baseline.average_recall(reference);
      const double base_precision = baseline.average_precision(reference);
      std::printf("%-6s %6.1f %14.3f %14.3f %16.3f %16.3f\n", preset,
                  0.5 * static_cast<double>(half_scan), sec_recall,
                  sec_precision, base_recall, base_precision);
      std::fflush(stdout);
      obs::Json row = obs::Json::object();
      row.set("db", preset);
      row.set("scans", 0.5 * static_cast<double>(half_scan));
      row.set("secure_recall", sec_recall);
      row.set("secure_precision", sec_precision);
      row.set("baseline_recall", base_recall);
      row.set("baseline_precision", base_precision);
      sink.row(std::move(row));
    }
    trace.end(secure.engine());
    sink.section(std::string("protocol_") + preset, secure.protocol_stats());
  }
  if (trace.active()) sink.section("trace", trace.section());
  const bool trace_ok = trace.finish();
  return sink.write() && trace_ok ? 0 : 1;
}
