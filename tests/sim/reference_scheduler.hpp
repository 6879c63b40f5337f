// Differential oracle for the engine's scheduler (sim/event_queue.hpp).
//
// The only contract on the scheduler is the exact (time, seq) delivery
// order. This header checks it independently of the engine's calendar
// queue and timer wheel: it walks a recorded sim::Schedule, pushes each
// event into a plain std::priority_queue once the recorded number of
// dispatches has happened, and pops the (time, seq) minimum into a
// ScheduleHasher. A correct engine run and this replay must agree on the
// dispatch hash, the dispatch count, and the pending-set high-water mark.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/trace.hpp"

namespace kgrid::sim {

struct ReferenceRun {
  std::uint64_t hash = 0;        // ScheduleHasher value of the dispatches
  std::uint64_t dispatched = 0;  // events popped
  std::uint64_t max_depth = 0;   // pending-set high-water mark
};

/// Replay `schedule` through a binary heap ordered by (time, seq). Stops
/// after schedule.dispatch_count pops (or early, if the heap runs dry);
/// pushes recorded after the last dispatch still count toward max_depth.
inline ReferenceRun run_reference_scheduler(const Schedule& schedule) {
  struct Later {
    bool operator()(const EventRecord& a, const EventRecord& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<EventRecord, std::vector<EventRecord>, Later> heap;
  ScheduleHasher hasher;
  ReferenceRun out;
  std::size_t next = 0;
  for (std::uint64_t done = 0;; ++done) {
    while (next < schedule.pushes.size() &&
           schedule.pushes[next].dispatches_before <= done) {
      heap.push(schedule.pushes[next++].record);
      out.max_depth = std::max<std::uint64_t>(out.max_depth, heap.size());
    }
    if (done == schedule.dispatch_count || heap.empty()) break;
    hasher.on_dispatch(heap.top());
    heap.pop();
  }
  out.hash = hasher.hash();
  out.dispatched = hasher.dispatched();
  return out;
}

}  // namespace kgrid::sim
