#include "net/live/transport.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.hpp"

namespace kgrid::net::live {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// Compact a receive buffer once this much parsed prefix accumulates.
constexpr std::size_t kCompactAt = 64 * 1024;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  KGRID_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "fcntl(O_NONBLOCK) failed");
}

void set_nodelay(int fd) {
  // Nagle off: the reactor batches per destination itself (one writev per
  // ring per pump), so kernel-side delay of small frames is pure latency.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

SocketTransport::SocketTransport(Options options) : options_(options) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  KGRID_CHECK(epoll_fd_ >= 0, "epoll_create1 failed");
  if (options_.kind == TransportKind::kTcp) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    KGRID_CHECK(listen_fd_ >= 0, "socket(AF_INET) failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral: parallel test runs cannot collide
    KGRID_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "bind(127.0.0.1) failed");
    KGRID_CHECK(::listen(listen_fd_, 128) == 0, "listen failed");
    socklen_t len = sizeof addr;
    KGRID_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0,
                "getsockname failed");
    port_ = ntohs(addr.sin_port);
    set_nonblocking(listen_fd_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    KGRID_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
                "epoll_ctl(listener) failed");
  }
}

SocketTransport::~SocketTransport() {
  for (auto& [key, link] : links_) ::close(link->fd);
  for (auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::pair<int, int> SocketTransport::make_link_pair() {
  if (options_.kind == TransportKind::kUds) {
    int sv[2];
    KGRID_CHECK(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) == 0,
                "socketpair failed");
    set_nonblocking(sv[0]);
    set_nonblocking(sv[1]);
    return {sv[0], sv[1]};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  KGRID_CHECK(fd >= 0, "socket(AF_INET) failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  // Blocking connect: loopback completes immediately. The accept side
  // arrives through the listener in pump() — frames are self-describing
  // (every header carries from/to), so which accepted fd maps to which
  // connect is irrelevant; kernel buffers hold bytes until the accept.
  KGRID_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr) == 0,
              "loopback connect failed");
  set_nodelay(fd);
  set_nonblocking(fd);
  return {fd, -1};
}

void SocketTransport::add_recv(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  KGRID_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
              "epoll_ctl(conn) failed");
  conns_.emplace(fd, std::make_unique<RecvConn>(fd));
}

int SocketTransport::open_ingress() {
  ingress_mode_ = true;
  if (options_.kind == TransportKind::kUds) {
    int sv[2];
    KGRID_CHECK(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) == 0,
                "socketpair failed");
    set_nonblocking(sv[1]);
    add_recv(sv[1]);
    return sv[0];  // stays blocking: kernel-buffer backpressure for the writer
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  KGRID_CHECK(fd >= 0, "socket(AF_INET) failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  KGRID_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr) == 0,
              "loopback connect failed");
  set_nodelay(fd);
  return fd;
}

SocketTransport::SendLink& SocketTransport::link_to(sim::EntityId from,
                                                    sim::EntityId to) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
  const auto it = links_.find(key);
  if (it != links_.end()) return *it->second;
  const auto [wfd, rfd] = make_link_pair();
  if (rfd >= 0) add_recv(rfd);
  return *links_.emplace(key, std::make_unique<SendLink>(
                                  wfd, options_.send_ring_bytes))
              .first->second;
}

void SocketTransport::dispatch(const sim::EventRecord& record,
                               sim::Payload&& payload) {
  KGRID_CHECK(engine_ != nullptr, "transport dispatch before on_attach");
  // in_flight() is exact only when all inbound frames are dispatched ones;
  // a generator feeding open_ingress() must drive its own engine pump loop
  // instead of the engine's drain barrier.
  KGRID_CHECK(!ingress_mode_,
              "dispatch() and open_ingress() cannot share a transport");
  SendLink& link = link_to(record.from, record.to);
  scratch_.clear();
  KGRID_CHECK(wire::encode_frame(scratch_, record, payload),
              "live transport carries closed-set payloads only (docs/LIVE.md)");
  const std::string& body = scratch_.bytes();
  KGRID_CHECK(body.size() <= wire::kMaxFrameBytes,
              "frame exceeds wire::kMaxFrameBytes");
  const std::size_t total = wire::kFrameHeaderBytes + body.size();
  KGRID_CHECK(total <= link.ring.capacity(),
              "frame exceeds the send ring; raise Options::send_ring_bytes");
  ++in_flight_;
  // Bounded send queue: a full ring stalls the sender, which pumps — the
  // flush drains this ring, and the read side empties our own loopback
  // buffers, so a single-process grid cannot deadlock on two full
  // directions.
  while (link.ring.free_space() < total) {
    ++stats_.backpressure_stalls;
    flush_link(link);
    if (link.ring.free_space() >= total) break;
    pump(true);
  }
  char header[wire::kFrameHeaderBytes];
  const auto n = static_cast<std::uint32_t>(body.size());
  header[0] = static_cast<char>(n & 0xff);
  header[1] = static_cast<char>((n >> 8) & 0xff);
  header[2] = static_cast<char>((n >> 16) & 0xff);
  header[3] = static_cast<char>((n >> 24) & 0xff);
  KGRID_CHECK(link.ring.append(header, sizeof header) &&
                  link.ring.append(body.data(), body.size()),
              "ring append failed after space check");
  link.frame_lens.push_back(static_cast<std::uint32_t>(total));
  // No eager flush: frames a handler fans out to one destination leave in
  // a single writev at the next pump (coalescing).
}

std::size_t SocketTransport::flush_link(SendLink& link) {
  std::size_t total = 0;
  while (!link.ring.empty()) {
    const auto spans = link.ring.read_spans();
    iovec iov[2];
    int iovs = 0;
    for (const auto& s : spans) {
      if (s.len == 0) continue;
      iov[iovs].iov_base = const_cast<char*>(s.data);
      iov[iovs].iov_len = s.len;
      ++iovs;
    }
    const ssize_t wrote = ::writev(link.fd, iov, iovs);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      KGRID_CHECK(false, "writev failed on live link");
    }
    link.ring.consume(static_cast<std::size_t>(wrote));
    total += static_cast<std::size_t>(wrote);
    stats_.bytes_out += static_cast<std::uint64_t>(wrote);
    // Retire whole frames against the written bytes; a flush that carried
    // more than one whole frame is realized coalescing.
    auto remaining = static_cast<std::uint64_t>(wrote);
    std::uint64_t frames_done = 0;
    while (remaining > 0 && !link.frame_lens.empty()) {
      const std::uint64_t need = link.frame_lens.front() - link.partial;
      if (remaining >= need) {
        remaining -= need;
        link.partial = 0;
        link.frame_lens.pop_front();
        ++frames_done;
      } else {
        link.partial += remaining;
        remaining = 0;
      }
    }
    stats_.frames_out += frames_done;
    if (frames_done >= 2) stats_.coalesced_frames += frames_done;
  }
  return total;
}

std::size_t SocketTransport::flush_all() {
  std::size_t total = 0;
  for (auto& [key, link] : links_) total += flush_link(*link);
  return total;
}

void SocketTransport::deliver_buffered(RecvConn& conn,
                                       std::size_t* delivered) {
  while (conn.buf.size() - conn.head >= wire::kFrameHeaderBytes) {
    const auto* p =
        reinterpret_cast<const unsigned char*>(conn.buf.data() + conn.head);
    const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
    KGRID_CHECK(len <= wire::kMaxFrameBytes, "oversized frame on live link");
    if (conn.buf.size() - conn.head - wire::kFrameHeaderBytes < len) break;
    const std::string_view body(
        conn.buf.data() + conn.head + wire::kFrameHeaderBytes, len);
    sim::EventRecord rec;
    sim::Payload payload;
    const bool valid = wire::decode_frame(body, &rec, &payload);
    conn.head += wire::kFrameHeaderBytes + len;
    ++stats_.frames_in;
    if (!ingress_mode_) {
      KGRID_CHECK(in_flight_ > 0, "delivered frame was never dispatched");
      --in_flight_;
    }
    if (!valid) {
      // A malformed frame may come from a hostile peer, so it is dropped,
      // never fatal. When its header still names a sender, the recipient
      // gets an empty payload from that sender in its place, and the
      // protocol layer rejects the sender (core::SecureResource quarantines
      // it); a frame without a readable header is dropped outright.
      ++stats_.frames_rejected;
      payload = sim::Payload();
      if (!wire::decode_frame_header(body, &rec)) continue;
    }
    if (delivery_hook_)
      delivery_hook_(rec, wire::kFrameHeaderBytes + std::size_t{len});
    // Zero-copy re-injection: the payload (and any COW cipher body it
    // holds) moves straight into the engine's pooled event slot.
    engine_->transport_push(rec, std::move(payload));
    ++*delivered;
  }
  if (conn.head > 0 &&
      (conn.head == conn.buf.size() || conn.head >= kCompactAt)) {
    conn.buf.erase(conn.buf.begin(),
                   conn.buf.begin() + static_cast<std::ptrdiff_t>(conn.head));
    conn.head = 0;
  }
}

std::size_t SocketTransport::service_recv(RecvConn& conn, bool* closed) {
  std::size_t delivered = 0;
  for (;;) {
    const std::size_t old = conn.buf.size();
    conn.buf.resize(old + kReadChunk);
    const ssize_t got = ::read(conn.fd, conn.buf.data() + old, kReadChunk);
    if (got < 0) {
      conn.buf.resize(old);
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      KGRID_CHECK(false, "read failed on live link");
    }
    if (got == 0) {  // peer closed (e.g. the generator finished)
      conn.buf.resize(old);
      *closed = true;
      break;
    }
    conn.buf.resize(old + static_cast<std::size_t>(got));
    stats_.bytes_in += static_cast<std::uint64_t>(got);
    deliver_buffered(conn, &delivered);
    if (static_cast<std::size_t>(got) < kReadChunk) break;  // drained
  }
  deliver_buffered(conn, &delivered);
  return delivered;
}

bool SocketTransport::pump(bool block) {
  const std::size_t wrote = flush_all();
  bool writes_pending = false;
  for (const auto& [key, link] : links_)
    if (!link->ring.empty()) writes_pending = true;
  // Pending writes poll at timeout zero: the data unblocking them is our
  // own loopback traffic, which the reads below consume this same pass.
  const int timeout =
      (!block || writes_pending) ? 0 : options_.pump_wait_ms;
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
  KGRID_CHECK(n >= 0 || errno == EINTR, "epoll_wait failed");
  std::size_t delivered = 0;
  int to_close[64];
  int n_close = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == listen_fd_) {
      for (;;) {
        const int conn_fd = ::accept4(listen_fd_, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (conn_fd < 0) {
          KGRID_CHECK(errno == EAGAIN || errno == EWOULDBLOCK ||
                          errno == EINTR,
                      "accept failed");
          break;
        }
        set_nodelay(conn_fd);
        add_recv(conn_fd);
      }
      continue;
    }
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    bool closed = false;
    delivered += service_recv(*it->second, &closed);
    if (closed) to_close[n_close++] = fd;
  }
  for (int i = 0; i < n_close; ++i) {
    const int fd = to_close[i];
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
  }
  // Dead-peer guard: frames in flight but no I/O progress across many
  // blocking pumps means the wire is wedged — fail loudly instead of
  // letting the engine's drain barrier spin forever.
  if (block) {
    if (delivered == 0 && wrote == 0 && in_flight_ > 0) {
      ++stalled_pumps_;
      KGRID_CHECK(stalled_pumps_ <= options_.max_stalled_pumps,
                  "live transport stalled with frames in flight");
    } else {
      stalled_pumps_ = 0;
    }
  }
  return delivered > 0;
}

}  // namespace kgrid::net::live
