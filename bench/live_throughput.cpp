// Live-transport throughput (docs/LIVE.md; EXPERIMENTS.md "Live grid").
//
// An open-loop generator thread writes length-prefixed wire frames into the
// reactor through SocketTransport::open_ingress() — real Quest-derived
// protocol messages, pre-encoded into a frame pool and stamped with the
// wall-clock send time just before each batched write(). The reactor
// (running on the main thread, exactly as it does under a LiveGrid) reads,
// reassembles, decodes, and injects every frame into an engine dispatching
// to sink entities; the delivery hook measures decode-time latency into the
// log-bucketed histogram (obs/latency_hist.hpp), whose p50/p99/p999 land in
// the artifact rows.
//
// Workloads (--workload=control|secure_plain|all):
//   * control         — majority::RuleMessage (candidate + vote pair): the
//                       plaintext control-plane frame, ~40 B. This is the
//                       acceptance workload (>= 100k msgs/s sustained on UDS
//                       loopback, EXPERIMENTS.md).
//   * secure_plain    — core::SecureRuleMessage with a plain-backend cipher,
//                       every frame an announcing one (edge id + candidate
//                       + cipher): the largest secure frame a link carries.
// Candidates are mined from a Quest preset database (--preset=T5I2), so
// frame sizes follow the paper's data, not synthetic constants. A
// Paillier cipher would only lengthen the frame: the reactor does no crypto
// (live_paillier in gridbench/ measures the secure grid with real keys).
//
// --trace=PATH[,--trace_key=KEY] additionally replays a recorded KGTRACE1
// schedule (e.g. from fig2_convergence --trace_record --trace_schedule):
// the recorded message stream's (from, to) traffic matrix drives the
// reactor's per-link fan-out, with control payloads standing in for the
// unrecorded message bodies and freshly stamped send times.
//
//   ./live_throughput [--transport=uds|tcp] [--msgs=200000] [--rate=0]
//                     [--workload=all] [--preset=T5I2] [--sinks=16]
//                     [--min_rate=0] [--trace=PATH] [--trace_key=KEY]
//                     [--json[=PATH]]
//
// --rate paces the generator to a target msgs/s (open loop: the schedule
// slips only if the wire cannot keep up); 0 = unthrottled.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "arm/rules.hpp"
#include "bench_util.hpp"
#include "core/messages.hpp"
#include "crypto/hom.hpp"
#include "data/quest.hpp"
#include "majority/messages.hpp"
#include "net/live/transport.hpp"
#include "net/wire/wire.hpp"
#include "obs/latency_hist.hpp"
#include "sim/trace.hpp"

namespace {

using namespace kgrid;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void store_f64(char* at, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i)
    at[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
}

std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// A pre-encoded frame plus the offset of its time f64 (sent_at follows
/// immediately), so the generator can restamp both without re-encoding.
struct PooledFrame {
  std::string bytes;  // [u32 len][body]
  std::size_t time_off = 0;
};

class SinkEntity : public sim::Entity {
 public:
  void on_message(sim::Engine&, sim::EntityId, sim::Payload&) override {}
};

/// Candidates mined from the Quest preset: one frequency and one confidence
/// candidate per eligible transaction prefix, so rule sizes (and hence
/// frame sizes) follow the paper's data distribution.
std::vector<arm::Candidate> quest_candidates(const std::string& preset,
                                             std::size_t want) {
  data::QuestParams params = data::QuestParams::preset(preset.c_str());
  params.n_transactions = 4096;
  params.n_items = 100;
  params.n_patterns = 40;
  const data::Database db =
      data::QuestGenerator(params, Rng(20240809)).generate();
  std::vector<arm::Candidate> out;
  for (const auto& t : db.transactions()) {
    if (out.size() >= want) break;
    const data::Itemset& items = t.items;
    if (items.empty()) continue;
    arm::Itemset x(items.begin(),
                   items.begin() + std::min<std::size_t>(items.size(), 3));
    out.push_back(arm::frequency_candidate(x));
    if (items.size() >= 2 && out.size() < want)
      out.push_back(arm::confidence_candidate({items[0]}, {items[1]}));
  }
  KGRID_CHECK(!out.empty(), "Quest preset produced no candidates");
  return out;
}

/// Encode one record+payload into a pooled frame, remembering where the
/// time/sent_at doubles live.
PooledFrame pool_frame(const sim::EventRecord& rec,
                       const sim::Payload& payload) {
  util::ByteWriter w;
  KGRID_CHECK(net::wire::encode_frame(w, rec, payload),
              "pool payload must be closed-set");
  const std::string& body = w.bytes();
  PooledFrame frame;
  frame.bytes.reserve(net::wire::kFrameHeaderBytes + body.size());
  const auto n = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i)
    frame.bytes.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  frame.bytes.append(body);
  frame.time_off = net::wire::kFrameHeaderBytes + varint_len(rec.seq) +
                   varint_len(rec.from) + varint_len(rec.to);
  return frame;
}

struct Workload {
  std::string name;
  std::vector<PooledFrame> frames;
  std::size_t sinks = 16;
};

sim::EventRecord pool_record(std::uint64_t i, std::size_t sinks) {
  sim::EventRecord rec;
  rec.seq = i;
  rec.from = static_cast<sim::EntityId>((i + 1) % sinks);
  rec.to = static_cast<sim::EntityId>(i % sinks);
  rec.time = 0.0;     // restamped per send (monotone message index)
  rec.sent_at = 0.0;  // restamped per send (wall clock)
  rec.kind = sim::EventKind::kMessage;
  return rec;
}

Workload make_workload(const std::string& name, const std::string& preset,
                       std::size_t sinks) {
  Workload w;
  w.name = name;
  w.sinks = sinks;
  const std::vector<arm::Candidate> candidates = quest_candidates(preset, 512);
  Rng rng(97);
  hom::ContextPtr ctx;
  std::vector<hom::Cipher> ciphers;
  if (name == "secure_plain") {
    ctx = hom::Context::make_plain();
    // A handful of distinct ciphertexts, reused round-robin.
    for (int i = 0; i < 16; ++i)
      ciphers.push_back(
          ctx->encrypt_key().encrypt_value(static_cast<std::uint64_t>(i), rng));
  }
  for (std::uint64_t i = 0; i < candidates.size(); ++i) {
    const sim::EventRecord rec = pool_record(i, sinks);
    if (ciphers.empty()) {
      majority::RuleMessage msg;
      msg.candidate = std::make_shared<const arm::Candidate>(candidates[i]);
      msg.vote = {static_cast<std::int64_t>(i % 257) - 128,
                  static_cast<std::int64_t>(i % 61)};
      w.frames.push_back(pool_frame(rec, sim::Payload(msg)));
    } else {
      // Frame i announces candidate i on its link (the sinks keep no
      // dictionary, so the announcement is decoded and dropped).
      core::SecureRuleMessage msg;
      msg.edge_id = static_cast<std::uint32_t>(i);
      msg.announce = std::make_shared<const arm::Candidate>(candidates[i]);
      msg.counter = ciphers[i % ciphers.size()];
      w.frames.push_back(pool_frame(rec, sim::Payload(msg)));
    }
  }
  return w;
}

/// The recorded message stream of a KGTRACE1 schedule as a frame pool
/// (traffic matrix from the recording, payloads/timestamps freshly stamped).
bool trace_workload(const std::string& path, const std::string& key,
                    const std::string& preset, Workload* out) {
  sim::TraceFile file;
  if (!sim::TraceFile::load(path, &file)) {
    std::fprintf(stderr, "live_throughput: cannot load trace %s\n",
                 path.c_str());
    return false;
  }
  std::string entry = key.empty() ? std::string() : "sched:" + key;
  if (entry.empty())
    for (const std::string& k : file.keys())
      if (k.rfind("sched:", 0) == 0) {
        entry = k;
        break;
      }
  const std::string* bytes = entry.empty() ? nullptr : file.find(entry);
  if (bytes == nullptr) {
    std::fprintf(stderr, "live_throughput: %s has no schedule entry %s\n",
                 path.c_str(), entry.empty() ? "(any)" : entry.c_str());
    return false;
  }
  sim::Schedule schedule;
  if (!sim::decode_schedule(*bytes, &schedule)) {
    std::fprintf(stderr, "live_throughput: corrupt schedule %s\n",
                 entry.c_str());
    return false;
  }
  out->name = "trace:" + entry.substr(6);
  out->sinks = static_cast<std::size_t>(schedule.entity_count);
  const std::vector<arm::Candidate> candidates = quest_candidates(preset, 256);
  std::uint64_t seq = 0;
  for (const sim::SchedulePush& push : schedule.pushes) {
    if (push.record.kind != sim::EventKind::kMessage) continue;  // timers
    sim::EventRecord rec = push.record;
    rec.seq = seq;
    rec.time = 0.0;
    rec.sent_at = 0.0;
    majority::RuleMessage msg;
    msg.candidate = std::make_shared<const arm::Candidate>(
        candidates[seq % candidates.size()]);
    msg.vote = {static_cast<std::int64_t>(seq % 100), 1};
    out->frames.push_back(pool_frame(rec, sim::Payload(msg)));
    ++seq;
  }
  if (out->frames.empty()) {
    std::fprintf(stderr, "live_throughput: schedule %s has no messages\n",
                 entry.c_str());
    return false;
  }
  std::printf("trace workload %s: %zu recorded messages, %zu entities\n",
              out->name.c_str(), out->frames.size(), out->sinks);
  return true;
}

struct RunResult {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  obs::LogHistogram latency;
  net::live::LiveStats stats;
};

/// One measured run: generator thread (open loop, optionally paced) against
/// the reactor + engine on this thread.
RunResult run_workload(const Workload& w, net::live::TransportKind kind,
                       std::uint64_t total, double rate,
                       bench::JsonSink& sink) {
  net::live::SocketTransport::Options options;
  options.kind = kind;
  net::live::SocketTransport transport(options);
  sim::Engine engine;
  // An open-loop generator can outrun dispatch until every message is
  // pending at once; pre-size for that so the arena never demand-grows.
  engine.reserve_events(total);
  sink.attach(engine);
  SinkEntity sink_entity;
  for (std::size_t i = 0; i < w.sinks; ++i)
    engine.add_entity(&sink_entity, "live_sink");
  engine.attach_transport(&transport);

  RunResult result;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered = 0;
  const double start = steady_seconds();
  transport.set_delivery_hook(
      [&](const sim::EventRecord& rec, std::size_t frame_bytes) {
        // rec.sent_at is run-relative (stamped by the generator below), so
        // the wire latency is the relative now minus it — never negative.
        result.latency.add((steady_seconds() - start) - rec.sent_at);
        delivered_bytes += frame_bytes;
        ++delivered;
      });

  const int ingress = transport.open_ingress();
  std::thread generator([&w, ingress, total, rate, start] {
    constexpr std::size_t kBatch = 64;
    std::string buf;
    std::uint64_t sent = 0;
    while (sent < total) {
      buf.clear();
      const std::uint64_t n =
          std::min<std::uint64_t>(kBatch, total - sent);
      const double now = steady_seconds();
      for (std::uint64_t i = 0; i < n; ++i) {
        const PooledFrame& f = w.frames[(sent + i) % w.frames.size()];
        const std::size_t at = buf.size();
        buf.append(f.bytes);
        // Both stamps are run-relative monotone seconds: `time` keeps the
        // engine clock advancing AND keeps the engine-side delivery-delay
        // histogram (time - sent_at) at exactly zero instead of the
        // nonsense negative values an absolute wall-clock stamp produced;
        // `sent_at` is what the wire-latency histogram subtracts.
        store_f64(buf.data() + at + f.time_off, now - start);
        store_f64(buf.data() + at + f.time_off + 8, now - start);
      }
      const char* p = buf.data();
      std::size_t left = buf.size();
      while (left > 0) {  // blocking fd: the kernel buffer is backpressure
        const ssize_t wrote = ::write(ingress, p, left);
        KGRID_CHECK(wrote > 0, "ingress write failed");
        p += wrote;
        left -= static_cast<std::size_t>(wrote);
      }
      sent += n;
      if (rate > 0.0) {  // open-loop pacing against the wall clock
        const double due = start + static_cast<double>(sent) / rate;
        const double ahead = due - steady_seconds();
        if (ahead > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
      }
    }
    ::close(ingress);
  });

  int dry_pumps = 0;
  while (delivered < total) {
    const std::uint64_t before = delivered;
    transport.pump(true);
    while (engine.step()) {
    }
    if (delivered == before) {
      KGRID_CHECK(++dry_pumps < 3000, "live_throughput: reactor stalled");
    } else {
      dry_pumps = 0;
    }
  }
  result.seconds = steady_seconds() - start;
  generator.join();
  while (engine.step()) {
  }
  result.msgs = delivered;
  result.bytes = delivered_bytes;
  result.stats = transport.stats();
  KGRID_CHECK(engine.messages_delivered() == total,
              "engine dispatched fewer messages than the wire delivered");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgrid;
  const Cli cli(argc, argv);
  const std::string transport_name = cli.get("transport", "uds");
  KGRID_CHECK(transport_name == "uds" || transport_name == "tcp",
              "--transport must be uds or tcp");
  const net::live::TransportKind kind = transport_name == "uds"
                                            ? net::live::TransportKind::kUds
                                            : net::live::TransportKind::kTcp;
  const auto total =
      static_cast<std::uint64_t>(cli.get_int("msgs", 200000));
  const double rate = cli.get_double("rate", 0.0);
  const double min_rate = cli.get_double("min_rate", 0.0);
  const std::string workload = cli.get("workload", "all");
  const std::string preset = cli.get("preset", "T5I2");
  const auto sinks = static_cast<std::size_t>(cli.get_int("sinks", 16));
  const std::string trace_path = cli.get("trace", "");
  const std::string trace_key = cli.get("trace_key", "");

  bench::JsonSink sink(cli, "live_throughput");
  sink.arg("transport", obs::Json(transport_name));
  sink.arg("msgs", obs::Json(total));
  sink.arg("rate", obs::Json(rate));
  sink.arg("workload", obs::Json(workload));
  sink.arg("preset", obs::Json(preset));
  sink.arg("sinks", obs::Json(sinks));
  if (!trace_path.empty()) sink.arg("trace", obs::Json(trace_path));

  std::vector<Workload> workloads;
  for (const char* name : {"control", "secure_plain"})
    if (workload == "all" || workload == name)
      workloads.push_back(make_workload(name, preset, sinks));
  KGRID_CHECK(!workloads.empty() || !trace_path.empty(),
              "--workload must be control, secure_plain, or all");
  if (!trace_path.empty()) {
    Workload w;
    if (!trace_workload(trace_path, trace_key, preset, &w)) return 2;
    workloads.push_back(std::move(w));
  }

  std::printf("# Live-transport throughput (%s loopback, %llu msgs%s)\n",
              transport_name.c_str(), static_cast<unsigned long long>(total),
              rate > 0.0 ? ", paced" : ", unthrottled");
  std::printf("%-18s %12s %12s %10s %10s %10s %10s\n", "workload", "msgs/s",
              "MB/s", "p50_us", "p99_us", "p999_us", "coalesce");

  net::live::LiveStats net_total;
  bool throughput_ok = true;
  for (const Workload& w : workloads) {
    const RunResult r = run_workload(w, kind, total, rate, sink);
    const double msgs_per_s = static_cast<double>(r.msgs) / r.seconds;
    const double bytes_per_s = static_cast<double>(r.bytes) / r.seconds;
    const double coalesce_share =
        r.stats.frames_in == 0
            ? 0.0
            : static_cast<double>(r.stats.coalesced_frames) /
                  static_cast<double>(r.stats.frames_in);
    std::printf("%-18s %12.0f %12.2f %10.1f %10.1f %10.1f %9.0f%%\n",
                w.name.c_str(), msgs_per_s, bytes_per_s / 1e6,
                r.latency.p50() * 1e6, r.latency.p99() * 1e6,
                r.latency.p999() * 1e6, coalesce_share * 100.0);
    std::fflush(stdout);

    obs::Json row = obs::Json::object();
    row.set("workload", w.name);
    row.set("transport", transport_name);
    row.set("msgs", r.msgs);
    row.set("bytes", r.bytes);
    row.set("seconds", r.seconds);
    row.set("msgs_per_s", msgs_per_s);
    row.set("bytes_per_s", bytes_per_s);
    row.set("latency", r.latency.to_json());
    sink.row(std::move(row));

    net_total.bytes_in += r.stats.bytes_in;
    net_total.bytes_out += r.stats.bytes_out;
    net_total.frames_in += r.stats.frames_in;
    net_total.frames_out += r.stats.frames_out;
    net_total.coalesced_frames += r.stats.coalesced_frames;
    net_total.backpressure_stalls += r.stats.backpressure_stalls;

    // The EXPERIMENTS.md acceptance line: plaintext control frames over UDS
    // loopback must sustain 100k msgs/s. Gated behind --min_rate so CI
    // smoke runs on loaded machines stay schema checks, and only judged on
    // the unthrottled control run (a paced run measures the pacer).
    if (min_rate > 0.0 && w.name == "control" && rate == 0.0 &&
        msgs_per_s < min_rate) {
      std::fprintf(stderr,
                   "FAIL: control workload sustained %.0f msgs/s < %.0f\n",
                   msgs_per_s, min_rate);
      throughput_ok = false;
    }
  }

  obs::Json net = obs::Json::object();
  net.set("live", net_total.to_json());
  sink.section("net", std::move(net));
  return sink.write() && throughput_ok ? 0 : 1;
}
