// Microbenchmarks of the crypto substrate: Paillier primitives at several
// modulus widths, the underlying Montgomery exponentiation, packed-counter
// operations, and the plain ideal-functionality backend for contrast —
// quantifying why the large-scale figure benches default to the plain
// backend (see DESIGN.md "Paillier at simulation scale").
//
// Per-optimization series (EXPERIMENTS.md records before/after numbers):
//   * BM_MontgomeryPow vs BM_MontgomeryPowBinary — windowed vs binary ladder.
//   * BM_PaillierAdd vs BM_PaillierAddForm — per-op R-conversions vs
//     Montgomery-form-cached operands.
//   * BM_BigIntMulKaratsuba vs BM_BigIntMulSchoolbook — around and above the
//     kKaratsubaThresholdLimbs crossover.
//
//   * BM_BatchDecrypt/BM_BatchRerandomize — the hom batch APIs over an
//     executor, swept across executor widths via the second benchmark arg
//     ({modulus_bits, threads}); the per-item cost at threads=1 vs the
//     single-op benches above isolates the batch-API overhead.
//
// Besides google-benchmark's own flags, `--json[=PATH]` (kgrid convention,
// stripped before benchmark::Initialize) writes a kgrid.bench.v1 envelope
// with one series row per benchmark run — see docs/METRICS.md. `--threads`
// is likewise stripped (and recorded in the artifact's args) so the flag can
// be passed uniformly to every bench binary; the batch benches sweep
// executor widths through their benchmark args regardless.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/counter.hpp"
#include "crypto/hom.hpp"
#include "crypto/paillier.hpp"
#include "obs/bench_report.hpp"
#include "sim/executor.hpp"
#include "wide/fixword/fixword.hpp"
#include "wide/modular.hpp"
#include "wide/prime.hpp"

namespace {

using namespace kgrid;
using wide::BigInt;

const hom::PaillierPrivateKey& key_for(std::size_t bits) {
  static std::map<std::size_t, hom::PaillierPrivateKey> cache;
  auto it = cache.find(bits);
  if (it == cache.end()) {
    Rng rng(bits);
    it = cache.emplace(bits, hom::paillier_keygen(bits, rng)).first;
  }
  return it->second;
}

void BM_PaillierKeygen(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        hom::paillier_keygen(static_cast<std::size_t>(state.range(0)), rng));
}
BENCHMARK(BM_PaillierKeygen)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  const auto& key = key_for(static_cast<std::size_t>(state.range(0)));
  Rng rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(key.pub.encrypt(BigInt(123456789), rng));
}
BENCHMARK(BM_PaillierEncrypt)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  const auto& key = key_for(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  const BigInt c = key.pub.encrypt(BigInt(987654321), rng);
  for (auto _ : state) benchmark::DoNotOptimize(key.decrypt(c));
}
BENCHMARK(BM_PaillierDecrypt)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierDecryptNoCrt(benchmark::State& state) {
  const auto& key = key_for(static_cast<std::size_t>(state.range(0)));
  Rng rng(33);
  const BigInt c = key.pub.encrypt(BigInt(555), rng);
  for (auto _ : state) benchmark::DoNotOptimize(key.decrypt_no_crt(c));
}
BENCHMARK(BM_PaillierDecryptNoCrt)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierAdd(benchmark::State& state) {
  const auto& key = key_for(static_cast<std::size_t>(state.range(0)));
  Rng rng(4);
  const BigInt a = key.pub.encrypt(BigInt(1), rng);
  const BigInt b = key.pub.encrypt(BigInt(2), rng);
  for (auto _ : state) benchmark::DoNotOptimize(key.pub.add(a, b));
}
BENCHMARK(BM_PaillierAdd)->Arg(512)->Arg(1024)->Arg(2048);

void BM_PaillierAddForm(benchmark::State& state) {
  const auto& key = key_for(static_cast<std::size_t>(state.range(0)));
  Rng rng(4);
  const auto a = key.pub.encrypt_form(BigInt(1), rng);
  const auto b = key.pub.encrypt_form(BigInt(2), rng);
  for (auto _ : state) benchmark::DoNotOptimize(key.pub.add_form(a, b));
}
BENCHMARK(BM_PaillierAddForm)->Arg(512)->Arg(1024)->Arg(2048);

void BM_PaillierScalarMul(benchmark::State& state) {
  const auto& key = key_for(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  const BigInt a = key.pub.encrypt(BigInt(7), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(key.pub.scalar_mul(BigInt(10007), a));
}
BENCHMARK(BM_PaillierScalarMul)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_PaillierRerandomize(benchmark::State& state) {
  const auto& key = key_for(static_cast<std::size_t>(state.range(0)));
  Rng rng(6);
  const BigInt a = key.pub.encrypt(BigInt(7), rng);
  for (auto _ : state) benchmark::DoNotOptimize(key.pub.rerandomize(a, rng));
}
BENCHMARK(BM_PaillierRerandomize)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_MontgomeryPow(benchmark::State& state) {
  Rng rng(7);
  const auto bits = static_cast<std::size_t>(state.range(0));
  BigInt m = BigInt::random_bits(rng, bits);
  if (m.is_even()) m += BigInt(1);
  const wide::Montgomery mont(m);
  const BigInt base = BigInt::random_below(rng, m);
  const BigInt exp = BigInt::random_bits(rng, bits);
  for (auto _ : state) benchmark::DoNotOptimize(mont.pow(base, exp));
}
BENCHMARK(BM_MontgomeryPow)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_MontgomeryPowBinary(benchmark::State& state) {
  Rng rng(7);
  const auto bits = static_cast<std::size_t>(state.range(0));
  BigInt m = BigInt::random_bits(rng, bits);
  if (m.is_even()) m += BigInt(1);
  const wide::Montgomery mont(m);
  const BigInt base = BigInt::random_below(rng, m);
  const BigInt exp = BigInt::random_bits(rng, bits);
  for (auto _ : state) benchmark::DoNotOptimize(mont.pow_binary(base, exp));
}
BENCHMARK(BM_MontgomeryPowBinary)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_BigIntMulKaratsuba(benchmark::State& state) {
  Rng rng(10);
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = BigInt::random_bits(rng, limbs * 64);
  const BigInt b = BigInt::random_bits(rng, limbs * 64);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_BigIntMulKaratsuba)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_BigIntMulSchoolbook(benchmark::State& state) {
  Rng rng(10);
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = BigInt::random_bits(rng, limbs * 64);
  const BigInt b = BigInt::random_bits(rng, limbs * 64);
  for (auto _ : state)
    benchmark::DoNotOptimize(BigInt::mul_schoolbook(a, b));
}
BENCHMARK(BM_BigIntMulSchoolbook)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_MillerRabin(benchmark::State& state) {
  Rng rng(8);
  const BigInt p = wide::random_prime(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(wide::is_probable_prime(p, rng, 16));
}
BENCHMARK(BM_MillerRabin)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

template <hom::Backend B>
void BM_CounterAggregate(benchmark::State& state) {
  Rng rng(9);
  const auto ctx = B == hom::Backend::kPlain
                       ? hom::Context::make_plain()
                       : hom::Context::make_paillier(1024, rng);
  const hom::CounterLayout layout(4);
  const auto enc = ctx->encrypt_key();
  const auto eval = ctx->eval_handle();
  std::vector<hom::Cipher> counters;
  const auto shares = hom::draw_shares(5, rng);
  for (std::size_t s = 0; s < 5; ++s)
    counters.push_back(
        hom::make_counter(enc, layout, 100, 200, 1, shares[s], s, 3, rng));
  for (auto _ : state) {
    hom::Cipher agg = eval.zero(layout.n_fields(), rng);
    for (const auto& c : counters) agg = eval.add(agg, eval.rerandomize(c, rng));
    benchmark::DoNotOptimize(agg);
  }
}
BENCHMARK(BM_CounterAggregate<hom::Backend::kPlain>);
BENCHMARK(BM_CounterAggregate<hom::Backend::kPaillier>)
    ->Unit(benchmark::kMicrosecond);

// -- hom batch APIs over an executor --

const hom::ContextPtr& hom_context_for(std::size_t bits) {
  static std::map<std::size_t, hom::ContextPtr> cache;
  auto it = cache.find(bits);
  if (it == cache.end()) {
    Rng rng(bits + 1);
    it = cache.emplace(bits, hom::Context::make_paillier(bits, rng)).first;
  }
  return it->second;
}

sim::Executor& executor_for(std::size_t threads) {
  static std::map<std::size_t, std::unique_ptr<sim::Executor>> cache;
  auto it = cache.find(threads);
  if (it == cache.end())
    it = cache.emplace(threads, std::make_unique<sim::Executor>(threads)).first;
  return *it->second;
}

constexpr std::size_t kHomBatch = 16;  // ~one broker aggregation's worth

void BM_BatchEncrypt(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto& ctx = hom_context_for(bits);
  const auto enc = ctx->encrypt_key();
  Rng rng(11);
  std::vector<std::vector<std::uint64_t>> items;
  for (std::size_t i = 0; i < kHomBatch; ++i)
    items.push_back({1000 + i});
  for (auto _ : state)
    benchmark::DoNotOptimize(
        enc.encrypt_batch(items, rng, &executor_for(threads)));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kHomBatch));
}
BENCHMARK(BM_BatchEncrypt)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_BatchRerandomize(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto& ctx = hom_context_for(bits);
  const auto enc = ctx->encrypt_key();
  const auto eval = ctx->eval_handle();
  Rng rng(12);
  std::vector<hom::Cipher> ciphers;
  std::vector<const hom::Cipher*> ptrs;
  for (std::size_t i = 0; i < kHomBatch; ++i)
    ciphers.push_back(enc.encrypt_value(i + 1, rng));
  for (const auto& c : ciphers) ptrs.push_back(&c);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        eval.rerandomize_batch(ptrs, rng, &executor_for(threads)));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kHomBatch));
}
BENCHMARK(BM_BatchRerandomize)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_BatchDecrypt(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto& ctx = hom_context_for(bits);
  const auto enc = ctx->encrypt_key();
  const auto dec = ctx->decrypt_key();
  Rng rng(13);
  std::vector<hom::Cipher> ciphers;
  std::vector<const hom::Cipher*> ptrs;
  for (std::size_t i = 0; i < kHomBatch; ++i)
    ciphers.push_back(enc.encrypt_value(1000 + i, rng));
  for (const auto& c : ciphers) ptrs.push_back(&c);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dec.decrypt_batch(ptrs, 1, &executor_for(threads)));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kHomBatch));
}
BENCHMARK(BM_BatchDecrypt)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Unit(benchmark::kMicrosecond);

// -- Per-kernel series: the fixed-width backend kernels themselves --
//
// Registered at runtime (benchmark::RegisterBenchmark) once per *available*
// backend, so the artifact records exactly what this CPU can run:
//
//   BM_CiosMul<backend>/BITS        — batch Montgomery multiplication
//   BM_InterleavedPow<backend>/kK/BITS — K-wide interleaved exponentiation
//
// KGRID_BENCH_PORTABLE=1 makes the whole artifact machine-portable: the
// kernel series is restricted to the scalar backend AND dispatch is pinned
// to scalar for every batch bench, so committed baselines are comparable
// across machines with different SIMD capabilities. Against such a baseline
// a SIMD-capable runner only ever *improves* the batch rows, and its extra
// kernel rows surface in bench_diff as informational new rows.

const wide::Montgomery& fixed_width_mont(std::size_t bits) {
  static std::map<std::size_t, std::unique_ptr<wide::Montgomery>> cache;
  auto it = cache.find(bits);
  if (it == cache.end()) {
    Rng rng(bits + 3);
    // Top bit set: the modulus lands on exactly bits/64 limbs.
    BigInt m = BigInt::random_bits(rng, bits - 1) + (BigInt(1) << (bits - 1));
    if (m.is_even()) m += BigInt(1);
    it = cache.emplace(bits, std::make_unique<wide::Montgomery>(m)).first;
  }
  return *it->second;
}

void kernel_cios_mul(benchmark::State& state, const wide::fixword::Backend* b) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const wide::Montgomery& mont = fixed_width_mont(bits);
  Rng rng(17);
  constexpr std::size_t kMuls = 64;
  std::vector<wide::Montgomery::Form> xs, ys;
  for (std::size_t i = 0; i < kMuls; ++i) {
    xs.push_back(mont.to_form(BigInt::random_below(rng, mont.modulus())));
    ys.push_back(mont.to_form(BigInt::random_below(rng, mont.modulus())));
  }
  wide::fixword::force_backend(b);
  for (auto _ : state) benchmark::DoNotOptimize(mont.mul_form_batch(xs, ys));
  wide::fixword::force_backend(nullptr);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kMuls));
}

void kernel_interleaved_pow(benchmark::State& state,
                            const wide::fixword::Backend* b, std::size_t k) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const wide::Montgomery& mont = fixed_width_mont(bits);
  Rng rng(18);
  std::vector<wide::Montgomery::Form> bases;
  for (std::size_t i = 0; i < k; ++i)
    bases.push_back(mont.to_form(BigInt::random_below(rng, mont.modulus())));
  const BigInt exp = BigInt::random_bits(rng, bits);
  wide::fixword::force_backend(b);
  for (auto _ : state) benchmark::DoNotOptimize(mont.pow_form_batch(bases, exp));
  wide::fixword::force_backend(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * k));
}

bool bench_portable() {
  const char* portable = std::getenv("KGRID_BENCH_PORTABLE");
  return portable != nullptr && portable[0] != '\0' &&
         std::string_view(portable) != "0";
}

void register_kernel_benches() {
  const bool scalar_only = bench_portable();
  for (const wide::fixword::Backend* b : wide::fixword::all_backends()) {
    if (!b->available()) continue;
    if (scalar_only && b->name() != "scalar") continue;
    const std::string bn(b->name());
    benchmark::RegisterBenchmark(
        ("BM_CiosMul<" + bn + ">").c_str(),
        [b](benchmark::State& s) { kernel_cios_mul(s, b); })
        ->Arg(1024)
        ->Arg(2048);
    for (std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      benchmark::RegisterBenchmark(
          ("BM_InterleavedPow<" + bn + ">/k" + std::to_string(k)).c_str(),
          [b, k](benchmark::State& s) { kernel_interleaved_pow(s, b, k); })
          ->Arg(1024)
          ->Iterations(4)
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

/// Console reporter that additionally captures every run as a series row
/// ({name, iterations, real_time, cpu_time, time_unit}).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred) continue;
      obs::Json row = obs::Json::object();
      row.set("name", run.benchmark_name());
      row.set("iterations", static_cast<std::uint64_t>(run.iterations));
      row.set("real_time", run.GetAdjustedRealTime());
      row.set("cpu_time", run.GetAdjustedCPUTime());
      row.set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<obs::Json> rows;
};

}  // namespace

int main(int argc, char** argv) {
  // Split off the kgrid-convention flags (--json, --threads) before
  // google-benchmark sees (and rejects) them.
  std::string json_path;
  std::string threads_flag;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i > 0 && arg.rfind("--json", 0) == 0) {
      const auto eq = arg.find('=');
      json_path = eq == std::string_view::npos ? std::string()
                                               : std::string(arg.substr(eq + 1));
      if (json_path.empty()) json_path = "BENCH_crypto_micro.json";
      continue;
    }
    if (i > 0 && arg.rfind("--threads", 0) == 0) {
      // Accepted for CLI uniformity with the figure benches and recorded in
      // the artifact; the batch benches sweep pool widths via their args.
      const auto eq = arg.find('=');
      threads_flag = eq == std::string_view::npos
                         ? std::string("auto")
                         : std::string(arg.substr(eq + 1));
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  const bool json_enabled = !json_path.empty();
  int bench_argc = static_cast<int>(bench_argv.size());

  kgrid::obs::BenchReport report("crypto_micro");
  if (!threads_flag.empty()) report.set_arg("threads", threads_flag);
  for (int i = 1; i < bench_argc; ++i)
    report.set_arg("argv" + std::to_string(i), bench_argv[i]);

  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data()))
    return 1;
  register_kernel_benches();
  if (bench_portable())
    wide::fixword::force_backend(wide::fixword::find_backend("scalar"));
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_enabled) {
    for (auto& row : reporter.rows) report.add_row(std::move(row));
    if (!report.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
