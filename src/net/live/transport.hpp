// Live socket transport: the engine's messages on real file descriptors
// (handbook: docs/LIVE.md).
//
// SocketTransport implements sim::Transport over an epoll reactor. Every
// ordered (from, to) pair that actually exchanges traffic gets a lazily
// created loopback link — a Unix-domain socketpair or a Nagle-off loopback
// TCP connection — with a bounded per-peer send ring (net/wire/ring.hpp).
// dispatch() encodes the frame (net/wire/wire.hpp) into the ring; pump()
// flushes rings with writev (at most two iovecs per ring, zero copies
// beyond the kernel) and reads, reassembles, decodes, and re-injects
// arrived frames via Engine::transport_push.
//
// Batching and backpressure:
//   * dispatch() only queues. All frames a handler sends to one peer leave
//     in a single writev at the next pump — per-destination coalescing
//     measured by stats().coalesced_frames.
//   * A full ring is the backpressure boundary: dispatch() counts a stall
//     and pumps (flush + read) until space opens. Reading our own loopback
//     traffic is what guarantees progress — both directions full would
//     otherwise deadlock a single-process grid.
//   * TCP links disable Nagle (TCP_NODELAY): the reactor already batches
//     per destination, so the kernel delaying small frames would only add
//     latency.
//
// Single-threaded by design: dispatch() and pump() run on the engine's
// simulation thread (the Transport contract), so links and counters need
// no locks. External ingress (open_ingress()) hands a connected write fd
// to another thread — e.g. the open-loop generator of
// bench/live_throughput — whose frames the reactor decodes and delivers
// exactly like looped-back ones; kernel socket buffers are the only
// cross-thread channel.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/wire/ring.hpp"
#include "net/wire/wire.hpp"
#include "obs/json.hpp"
#include "sim/engine.hpp"
#include "util/bytes.hpp"

namespace kgrid::net::live {

enum class TransportKind : std::uint8_t { kUds, kTcp };

/// The net.live.* counters (docs/METRICS.md "net section").
struct LiveStats {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Frames that left in a flush carrying more than one frame — the
  /// per-destination batching actually realized.
  std::uint64_t coalesced_frames = 0;
  /// dispatch() found the peer's send ring full and had to pump.
  std::uint64_t backpressure_stalls = 0;
  /// Frames that failed to decode (dropped; see deliver_buffered). Not in
  /// the artifact: a run of this process's own traffic keeps it at zero.
  std::uint64_t frames_rejected = 0;

  obs::Json to_json() const {
    obs::Json j = obs::Json::object();
    j.set("bytes_in", bytes_in);
    j.set("bytes_out", bytes_out);
    j.set("frames_in", frames_in);
    j.set("frames_out", frames_out);
    j.set("coalesced_frames", coalesced_frames);
    j.set("backpressure_stalls", backpressure_stalls);
    return j;
  }
};

struct TransportOptions {
  TransportKind kind = TransportKind::kUds;
  /// Per-peer send ring capacity (rounded up to a power of two). The
  /// bound is the backpressure knob: smaller rings stall senders sooner.
  std::size_t send_ring_bytes = 1u << 18;
  /// Longest single epoll wait of a blocking pump, milliseconds.
  int pump_wait_ms = 50;
  /// Consecutive progress-free blocking pumps (with frames in flight)
  /// tolerated before the transport fails loudly — a dead-peer guard so
  /// the engine's drain barrier cannot hang forever.
  int max_stalled_pumps = 600;
};

class SocketTransport final : public sim::Transport {
 public:
  using Options = TransportOptions;

  explicit SocketTransport(Options options = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // -- sim::Transport --
  void on_attach(sim::Engine& engine) override { engine_ = &engine; }
  void dispatch(const sim::EventRecord& record,
                sim::Payload&& payload) override;
  bool pump(bool block) override;
  std::uint64_t in_flight() const override { return in_flight_; }

  /// Open an ingress channel for an external traffic source: returns a
  /// connected, *blocking* fd the caller writes length-prefixed frames
  /// into (ownership transfers; close() it when done). The reactor serves
  /// the other end like any link. Blocking writes give the generator
  /// natural backpressure against the kernel buffer.
  int open_ingress();

  /// Called for every delivered frame, after decode and before
  /// transport_push — the latency tap of bench/live_throughput. The frame
  /// is delivered to the engine even without a hook.
  void set_delivery_hook(
      std::function<void(const sim::EventRecord&, std::size_t frame_bytes)>
          hook) {
    delivery_hook_ = std::move(hook);
  }

  TransportKind kind() const { return options_.kind; }
  const LiveStats& stats() const { return stats_; }

  /// The artifact's "net" section: {"live": {counters}} —
  /// obs::validate_bench_json checks this shape.
  obs::Json stats_json() const {
    obs::Json j = obs::Json::object();
    j.set("live", stats_.to_json());
    return j;
  }

 private:
  /// Outbound half of a link: the destination's bounded send ring plus the
  /// pending whole-frame lengths (for exact coalescing accounting).
  struct SendLink {
    explicit SendLink(int fd_, std::size_t ring_bytes)
        : fd(fd_), ring(ring_bytes) {}
    int fd = -1;
    wire::ByteRing ring;
    std::deque<std::uint32_t> frame_lens;  // bytes per queued frame
    std::uint64_t partial = 0;             // bytes of frame_lens.front() sent
  };

  /// Inbound half: a connected fd with its reassembly buffer.
  struct RecvConn {
    explicit RecvConn(int fd_) : fd(fd_) {}
    int fd = -1;
    std::vector<char> buf;
    std::size_t head = 0;  // parsed-up-to offset into buf
  };

  SendLink& link_to(sim::EntityId from, sim::EntityId to);
  std::pair<int, int> make_link_pair();  // (write fd, read fd)
  void add_recv(int fd);
  /// Flush one ring; returns bytes written. EAGAIN leaves the rest queued.
  std::size_t flush_link(SendLink& link);
  std::size_t flush_all();
  /// Read, reassemble, decode, deliver. Returns frames delivered; sets
  /// *closed when the peer hung up (fd left for the caller to retire).
  std::size_t service_recv(RecvConn& conn, bool* closed);
  void deliver_buffered(RecvConn& conn, std::size_t* delivered);

  Options options_;
  sim::Engine* engine_ = nullptr;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;       // TCP only
  std::uint16_t port_ = 0;   // TCP only
  std::unordered_map<std::uint64_t, std::unique_ptr<SendLink>> links_;
  std::unordered_map<int, std::unique_ptr<RecvConn>> conns_;
  util::ByteWriter scratch_;  // per-frame encode buffer, reused
  std::uint64_t in_flight_ = 0;
  /// open_ingress() was called: inbound frames are externally generated, so
  /// in_flight() bookkeeping (and hence dispatch()) is unavailable.
  bool ingress_mode_ = false;
  int stalled_pumps_ = 0;
  LiveStats stats_;
  std::function<void(const sim::EventRecord&, std::size_t)> delivery_hook_;
};

}  // namespace kgrid::net::live
