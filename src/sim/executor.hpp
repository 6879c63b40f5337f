// Deterministic parallel executor for the simulation engine.
//
// The secure protocol's dominant cost is per-resource Paillier work
// (encryptions, rerandomizations, CRT decryptions), and that work is
// embarrassingly parallel across resources: each offloaded job reads and
// writes only its own resource's state plus immutable shared key material.
// The Executor is the worker pool those jobs run on; Engine::offload
// (engine.hpp) is how entities submit them, and the engine's virtual-time
// barrier is what keeps the parallelism invisible to the protocol.
//
// Determinism contract (docs/ARCHITECTURE.md, "Determinism"):
//   * Jobs are pure with respect to shared mutable state: they may touch
//     their own entity, immutable context (keys, Montgomery tables,
//     topology), and internally synchronized sinks (obs counters). Nothing
//     a job computes may depend on the order in which other jobs run.
//   * Results are applied on the simulation thread only, in submission
//     order, at engine barriers that are themselves a pure function of the
//     event queue. Thread count therefore changes wall-clock time and
//     nothing else observable by the protocol.
//   * threads() == 1 spawns no workers at all: submit() runs the task
//     inline and parallel_for() is an index-order loop, so a single-thread
//     run is the pre-executor engine, instruction for instruction.
//
// parallel_for() is the synchronous batch primitive behind the src/crypto
// batch APIs (hom.hpp): the caller participates, helpers are pool workers,
// and a call from inside a worker thread degrades to an inline loop so
// nested batches cannot deadlock the pool.
//
// KGRID_THREADS (environment) overrides the library-wide default lane
// count; benches expose the same knob as --threads (default: hardware
// concurrency). Pool metrics (jobs, batches, queue depth, wait/busy time)
// export through metrics_json() into the bench artifact's sim.executor
// section (docs/METRICS.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace kgrid::sim {

class Executor {
 public:
  using Task = std::function<void()>;

  /// Handle to one submitted task; wait() blocks until it has run.
  class Ticket {
   public:
    Ticket() = default;
    bool valid() const { return future_.valid(); }

   private:
    friend class Executor;
    explicit Ticket(std::future<void> f) : future_(std::move(f)) {}
    std::future<void> future_;
  };

  /// `threads` is the total lane count, including the simulation thread:
  /// the pool spawns threads-1 workers. 0 resolves to default_threads();
  /// 1 spawns nothing and runs everything inline.
  explicit Executor(std::size_t threads = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t threads() const { return threads_; }

  /// The library-wide default lane count: the KGRID_THREADS environment
  /// override when set (how CI forces the whole test suite through the
  /// 2-lane pool), otherwise 1 — library users opt into parallelism
  /// explicitly; the benches default their --threads flag to
  /// hardware_threads() instead.
  static std::size_t default_threads();

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

  /// Enqueue a task for a pool worker (runs inline immediately when
  /// threads() == 1). Tasks must not wait on other tasks.
  Ticket submit(Task task);

  /// Block until a submitted task has finished (rethrows its exception).
  void wait(Ticket& ticket);

  /// Run fn(0) .. fn(n-1), returning when all have finished. The caller
  /// works too, so n items use up to threads() lanes. Each index must
  /// write only its own slot of caller-owned output; the schedule is
  /// unobservable. Runs as a plain index-order loop when threads() == 1,
  /// n < 2, or when called from a pool worker (nested batch).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True on a pool worker thread (where parallel_for degrades to inline).
  static bool on_worker_thread();

  /// RAII: treat the current thread as a pool lane for the scope, so nested
  /// parallel_for calls degrade to inline loops. The sharded engine
  /// (docs/SHARDING.md) runs one shard's window on the simulation thread
  /// while the pool runs the rest; without this mark, a crypto batch issued
  /// from that shard would enqueue helper tasks behind the other shards'
  /// window tasks and stall on them.
  class ScopedWorker {
   public:
    ScopedWorker();
    ~ScopedWorker();
    ScopedWorker(const ScopedWorker&) = delete;
    ScopedWorker& operator=(const ScopedWorker&) = delete;

   private:
    bool prev_;
  };

  /// Pool metrics for the bench artifact's sim.executor section
  /// (docs/METRICS.md): lane count, job/batch counters, queue high-water
  /// mark, and wall-clock busy/wait seconds. Deterministic except the two
  /// wall-clock fields.
  obs::Json metrics_json() const;

 private:
  void worker_loop();
  Ticket enqueue(Task task);

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::size_t max_queue_depth_ = 0;

  std::atomic<std::uint64_t> jobs_{0};         // submit() calls
  std::atomic<std::uint64_t> inline_jobs_{0};  // ...of which ran inline
  std::atomic<std::uint64_t> batches_{0};      // parallel_for() calls
  std::atomic<std::uint64_t> batch_items_{0};  // total indices across batches
  std::atomic<std::uint64_t> busy_ns_{0};      // worker time inside tasks
  std::atomic<std::uint64_t> wait_ns_{0};      // caller time blocked on results
};

/// The library-wide default shard count for Engine::enable_sharding
/// (docs/SHARDING.md): the KGRID_SHARDS environment override when set
/// (>= 1 enables sharded mode with that many shards), otherwise 0 — the
/// plain single-queue engine. Mirrors Executor::default_threads for the
/// executor-lane knob; benches expose the same value as --shards.
std::size_t default_shards();

}  // namespace kgrid::sim
