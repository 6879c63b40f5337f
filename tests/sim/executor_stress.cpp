// Executor/engine stress test with deliberately out-of-order job completion.
//
// Standalone binary (no gtest) so it can be built under ThreadSanitizer
// without requiring a TSan-instrumented gtest: CI compiles exactly this
// target with -fsanitize=thread and runs it to race-check the executor,
// the engine barrier, the relaxed-atomic crypto counters, and the Paillier
// batch paths, whose lanes share only immutable key material.
//
// The scenario: entities offload jobs whose compute time is an adversarial
// function of submission index (late submissions finish first), while a
// parallel_for hammers a shared relaxed-atomic accumulator from the
// simulation thread. Correctness = applies observed in submission order at
// every barrier, every index covered exactly once, and a final state that
// is a pure function of the inputs regardless of thread count. Paillier
// encrypt_batch/rerandomize_batch on several lanes must produce the same
// ciphertext bytes as the inline run.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "crypto/hom.hpp"
#include "sim/engine.hpp"
#include "sim/executor.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

using namespace kgrid;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Entity whose timer offloads a job that sleeps *longer* for *earlier*
/// submissions, so worker completion order inverts submission order.
class Straggler : public sim::Entity {
 public:
  explicit Straggler(std::vector<int>* order) : order_(order) {}

  void on_timer(sim::Engine& engine, std::uint64_t timer_id) override {
    const int index = static_cast<int>(timer_id);
    engine.offload(self_, [this, index]() -> sim::Engine::Apply {
      std::this_thread::sleep_for(std::chrono::microseconds(500 - 10 * index));
      return [this, index](sim::Engine&) { order_->push_back(index); };
    });
  }

  void on_message(sim::Engine&, sim::EntityId, sim::Payload&) override {}

  sim::EntityId self_ = 0;

 private:
  std::vector<int>* order_;
};

void stress_out_of_order_applies(std::size_t threads) {
  sim::Executor exec(threads);
  sim::Engine engine;
  std::vector<int> order;
  // Several entities so jobs from different entities are in flight at once.
  std::vector<Straggler> entities(4, Straggler(&order));
  for (auto& e : entities) e.self_ = engine.add_entity(&e, "straggler");
  // 40 timers, ids 1..40, interleaved across entities, all at time 0.
  for (int i = 1; i <= 40; ++i)
    engine.schedule(entities[i % entities.size()].self_, 0.0,
                    static_cast<std::uint64_t>(i));
  engine.run_until(0.0);
  check(order.size() == 40, "all applies ran");
  for (std::size_t i = 0; i < order.size(); ++i)
    check(order[i] == static_cast<int>(i + 1),
          "applies in submission order despite inverted completion order");
  check(engine.idle(), "engine quiesced");
}

void stress_parallel_for(std::size_t threads) {
  sim::Executor exec(threads);
  constexpr std::size_t kN = 10000;
  std::vector<std::uint8_t> hit(kN, 0);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    std::fill(hit.begin(), hit.end(), 0);
    exec.parallel_for(kN, [&](std::size_t i) {
      hit[i] = 1;  // disjoint slots — racing writes would be a bug by design
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) check(hit[i] == 1, "index covered");
  }
  check(sum.load() == 20ull * (kN * (kN - 1) / 2), "atomic sum exact");
}

void stress_mixed(std::size_t threads) {
  // parallel_for issued from the simulation thread while offloaded jobs
  // are still in flight: batch helpers and jobs share the worker queue.
  sim::Executor exec(threads);
  sim::Engine engine;
  engine.attach_executor(&exec);
  std::vector<int> order;
  Straggler e(&order);
  e.self_ = engine.add_entity(&e, "straggler");
  for (int i = 1; i <= 10; ++i)
    engine.schedule(e.self_, 0.0, static_cast<std::uint64_t>(i));
  // Fire the timers (jobs go in flight), then run a batch before draining.
  while (!engine.idle() && order.empty()) engine.step();
  std::atomic<std::uint64_t> acc{0};
  exec.parallel_for(1000, [&](std::size_t i) {
    acc.fetch_add(i, std::memory_order_relaxed);
  });
  check(acc.load() == 1000ull * 999 / 2, "batch correct amid jobs");
  engine.run_until(0.0);
  check(order.size() == 10, "all applies ran in mixed scenario");
  for (std::size_t i = 0; i < order.size(); ++i)
    check(order[i] == static_cast<int>(i + 1), "mixed applies ordered");
}

/// encrypt_batch then rerandomize_batch (one item listed twice, as a
/// double-counting broker sends it) on `threads` lanes; returns the
/// encode_cipher bytes of every result.
std::string paillier_batches(const hom::ContextPtr& ctx, std::size_t threads) {
  sim::Executor exec(threads);
  std::vector<std::vector<std::uint64_t>> items;
  for (std::uint64_t i = 0; i < 40; ++i) items.push_back({i, 3 * i + 1});
  Rng rng(7);
  const std::vector<hom::Cipher> fresh =
      ctx->encrypt_key().encrypt_batch(items, rng, &exec);
  std::vector<const hom::Cipher*> ptrs;
  for (const hom::Cipher& c : fresh) ptrs.push_back(&c);
  ptrs.push_back(&fresh[0]);
  const std::vector<hom::Cipher> again =
      ctx->eval_handle().rerandomize_batch(ptrs, rng, &exec);
  util::ByteWriter w;
  for (const hom::Cipher& c : fresh) hom::encode_cipher(w, c);
  for (const hom::Cipher& c : again) hom::encode_cipher(w, c);
  return w.bytes();
}

}  // namespace

int main() {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    stress_out_of_order_applies(threads);
    stress_parallel_for(threads);
    stress_mixed(threads);
  }
  Rng key_rng(2024);
  const hom::ContextPtr ctx = hom::Context::make_paillier(256, key_rng);
  check(paillier_batches(ctx, 4) == paillier_batches(ctx, 1),
        "Paillier batch ciphertexts identical at 4 lanes and inline");
  if (failures == 0) std::printf("executor_stress: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
