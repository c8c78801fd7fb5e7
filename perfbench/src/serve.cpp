// serve-catchup and serve-live: the socket gateway path (wire codec ->
// net::Connection -> poll loop -> core::Session -> engine -> snapshots),
// plus the serve layer probe of the traced run.
//
// Both workloads stream the same two Poisson sessions into an in-process
// net::Server over a Unix socket, with periodic snapshots at the
// documented 0.1 s simulated cadence and keep_history off. The catch-up
// client is the library's own net::Client (closed loop: the next chunk
// goes out when the previous chunk's CREDIT is back). The live client is
// written on the public wire codec and sends on a fixed schedule (open
// loop), so a gateway stall shows as lag on every chunk due behind it.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <sstream>
#include <thread>

#include "core/config_io.hpp"
#include "core/session.hpp"
#include "core/summary.hpp"
#include "gen/sources.hpp"
#include "net/client.hpp"
#include "net/connection.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace aetr;

constexpr std::size_t kChunk = 512;
constexpr std::size_t kSessions = 2;
/// Periodic snapshot cadence on the simulated clock (README, SERVICE.md).
constexpr double kSnapshotSec = 0.1;
/// serve-live offered load, aggregate over both sessions: about a third of
/// serve-catchup's throughput at the same stream length, as measured on
/// the code this benchmark was written against. Fixed, so that a faster
/// gateway is offered the same load and shows as lower lag.
constexpr double kLiveRate = 125e3;

std::size_t serve_events(const RunConfig& cfg) {
  return cfg.smoke ? 4000 : 100'000;
}

std::string session_name(std::size_t i) { return "s" + std::to_string(i); }

std::uint16_t session_id(std::size_t i) {
  return static_cast<std::uint16_t>(i + 1);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// HELLO carries the canonical default scenario, so the gateway parses a
/// config for every session, as a real client makes it do.
const std::string& hello_config() {
  static const std::string text = core::dump_scenario(core::ScenarioConfig{});
  return text;
}

net::GatewayConfig gateway_config(const std::string& snapshot_dir) {
  net::GatewayConfig gw;
  gw.snapshot_dir = snapshot_dir;
  gw.snapshot_interval_sec = kSnapshotSec;
  gw.keep_history = false;
  return gw;
}

std::vector<std::uint8_t> data_frame(const aer::EventStream& stream,
                                     std::size_t from, std::uint16_t sid) {
  const std::size_t n = std::min(kChunk, stream.size() - from);
  return net::encode_frame(net::MsgType::kData, sid,
                           net::encode_data(stream, from, n));
}

/// An in-process gateway on a Unix socket and the thread running its poll
/// loop; stopped (drained) and joined on destruction.
class ServeRig {
 public:
  explicit ServeRig(const std::string& dir) : dir_{dir} {
    fs::create_directories(dir + "/snap");
    net::ServerOptions options;
    options.gateway = gateway_config(dir + "/snap");
    options.uds_path = socket_path();
    server_ = std::make_unique<net::Server>(std::move(options));
    thread_ = std::thread{[this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: gateway stopped: %s\n", e.what());
      }
    }};
  }
  ~ServeRig() {
    server_->request_stop();
    thread_.join();
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  [[nodiscard]] std::string socket_path() const { return dir_ + "/gw.sock"; }

 private:
  std::string dir_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

/// Closed loop through net::Client: 512-event send_some calls round-robin
/// over the sessions; each call returns once its CREDIT is back, so one
/// call is one chunk's round trip.
Round catchup_round(const ServeRig& rig,
                    const std::vector<aer::EventStream>& streams,
                    Tracer& tracer, std::vector<std::string>& summaries) {
  std::vector<net::Client> clients;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    clients.push_back(net::Client::connect_uds(rig.socket_path()));
    (void)clients.back().hello(session_name(i), hello_config());
  }
  net::SendOptions chunked;
  chunked.chunk = kChunk;
  Round r;
  std::vector<std::size_t> pos(streams.size(), 0);
  const auto t0 = Clock::now();
  for (bool busy = true; busy;) {
    busy = false;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (pos[i] >= streams[i].size()) continue;
      const auto sp = tracer.scope("serve.send_some", session_id(i));
      const auto t = Clock::now();
      pos[i] += clients[i].send_some(streams[i], pos[i], kChunk, chunked);
      r.latency_ms.push_back(ms_between(t, Clock::now()));
      busy = busy || pos[i] < streams[i].size();
    }
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto sp = tracer.scope("serve.drain", session_id(i));
    summaries.push_back(clients[i].drain());
    r.items += static_cast<double>(streams[i].size());
  }
  r.wall_s = seconds_since(t0);
  return r;
}

// --- open-loop client on the raw wire codec ---------------------------------

class Fd {
 public:
  explicit Fd(int fd) : fd_{fd} {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string{"perfbench: "} + what + ": " +
                           std::strerror(errno));
}

int connect_uds(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("perfbench: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    sys_fail("connect");
  }
  return fd;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

struct LiveSession {
  explicit LiveSession(int fd) : fd{fd} {}
  Fd fd;
  net::Decoder decoder;
  std::uint16_t sid{0};
  std::uint64_t credit{0};
  bool acked{false};
  bool bye{false};
  std::deque<Clock::time_point> due;  ///< sent chunks awaiting CREDIT
  std::string summary;
};

/// Read what one socket has and handle every whole frame in it.
void read_frames(LiveSession& s, std::vector<double>& lag_ms) {
  std::uint8_t buf[65536];
  const ssize_t n = ::read(s.fd.get(), buf, sizeof buf);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    sys_fail("read");
  }
  if (n == 0) {
    if (!s.bye) throw std::runtime_error("perfbench: gateway closed early");
    return;
  }
  const auto now = Clock::now();
  s.decoder.feed(buf, static_cast<std::size_t>(n));
  while (auto f = s.decoder.next()) {
    switch (f->type) {
      case net::MsgType::kHelloAck: {
        const net::HelloAck ack = net::decode_hello_ack(f->payload);
        s.sid = f->session_id;
        s.credit = ack.credit;
        s.acked = true;
        break;
      }
      case net::MsgType::kCredit:
        s.credit += net::decode_credit(f->payload).grant;
        if (!s.due.empty()) {
          lag_ms.push_back(ms_between(s.due.front(), now));
          s.due.pop_front();
        }
        break;
      case net::MsgType::kSummary:
        s.summary = net::decode_summary(f->payload).text;
        break;
      case net::MsgType::kBye:
        s.bye = true;
        break;
      case net::MsgType::kNack:
        throw std::runtime_error("perfbench: gateway NACK: " +
                                 net::decode_nack(f->payload).reason);
      default:
        throw std::runtime_error(std::string{"perfbench: unexpected "} +
                                 net::to_string(f->type));
    }
  }
  if (s.decoder.failed()) {
    throw std::runtime_error("perfbench: framing: " + s.decoder.error());
  }
}

/// Wait up to `timeout` for any socket to be readable; handle what arrived.
void poll_sessions(std::vector<std::unique_ptr<LiveSession>>& sessions,
                   Clock::duration timeout, std::vector<double>& lag_ms) {
  std::vector<pollfd> fds;
  for (const auto& s : sessions) {
    if (!s->bye) fds.push_back(pollfd{s->fd.get(), POLLIN, 0});
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::max(timeout, Clock::duration::zero()))
                      .count();
  const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    sys_fail("ppoll");
  }
  for (std::size_t k = 0, i = 0; k < sessions.size(); ++k) {
    if (sessions[k]->bye) continue;
    if ((fds[i++].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      read_frames(*sessions[k], lag_ms);
    }
  }
}

/// Open loop: chunk j (round-robin over sessions) is due at t0 + j * 512 /
/// rate. Lag is its CREDIT's arrival minus its due time; `late_ms` is how
/// late the generator itself sent it.
Round live_round(const ServeRig& rig,
                 const std::vector<aer::EventStream>& streams, double rate,
                 std::vector<std::string>& summaries,
                 std::vector<double>& late_ms) {
  std::vector<std::unique_ptr<LiveSession>> sessions;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    sessions.push_back(
        std::make_unique<LiveSession>(connect_uds(rig.socket_path())));
    net::Hello hello;
    hello.session_name = session_name(i);
    hello.config_text = hello_config();
    send_all(sessions.back()->fd.get(),
             net::encode_frame(net::MsgType::kHello, 0,
                               net::encode_hello(hello)));
  }
  Round r;
  const auto all = [&](auto pred) {
    return std::all_of(sessions.begin(), sessions.end(),
                       [&](const auto& s) { return pred(*s); });
  };
  while (!all([](const LiveSession& s) { return s.acked; })) {
    poll_sessions(sessions, std::chrono::milliseconds(100), r.latency_ms);
  }

  // Encode every DATA frame before the clock starts: the schedule times
  // the gateway, not the client's encoder.
  struct Chunk {
    std::size_t session;
    std::size_t events;
    std::vector<std::uint8_t> frame;
  };
  std::vector<Chunk> chunks;
  std::vector<std::size_t> pos(streams.size(), 0);
  for (bool busy = true; busy;) {
    busy = false;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (pos[i] >= streams[i].size()) continue;
      const std::size_t n = std::min(kChunk, streams[i].size() - pos[i]);
      chunks.push_back({i, n, data_frame(streams[i], pos[i], sessions[i]->sid)});
      pos[i] += n;
      r.items += static_cast<double>(n);
      busy = busy || pos[i] < streams[i].size();
    }
  }

  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(kChunk) / rate));
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t j = 0; j < chunks.size(); ++j) {
    LiveSession& s = *sessions[chunks[j].session];
    const auto due = t0 + period * static_cast<long>(j);
    // Spin rather than sleep: a timed wait would add the host's wake-up
    // latency to both the send time and the CREDIT arrival time.
    while (Clock::now() < due || s.credit < chunks[j].events) {
      poll_sessions(sessions, Clock::duration::zero(), r.latency_ms);
    }
    late_ms.push_back(ms_between(due, Clock::now()));
    send_all(s.fd.get(), chunks[j].frame);
    s.credit -= chunks[j].events;
    s.due.push_back(due);
  }
  while (!all([](const LiveSession& s) { return s.due.empty(); })) {
    poll_sessions(sessions, Clock::duration::zero(), r.latency_ms);
  }
  for (const auto& s : sessions) {
    send_all(s->fd.get(),
             net::encode_frame(net::MsgType::kDrain, s->sid, {}));
  }
  while (!all([](const LiveSession& s) { return s.bye; })) {
    poll_sessions(sessions, std::chrono::milliseconds(100), r.latency_ms);
  }
  r.wall_s = seconds_since(t0);
  for (const auto& s : sessions) summaries.push_back(s->summary);
  return r;
}

// --- in-memory replays ------------------------------------------------------

/// The same frames a client sends, replayed through an in-memory
/// net::Connection with the gateway's settings: the reference summary.
std::string replay_connection(const std::string& snapshot_dir, std::size_t i,
                              const aer::EventStream& stream, Tracer& tracer) {
  fs::create_directories(snapshot_dir);
  const std::uint16_t sid = session_id(i);
  net::Connection conn{gateway_config(snapshot_dir), sid,
                       [](const std::vector<std::uint8_t>&) {}};
  net::Hello hello;
  hello.session_name = session_name(i);
  hello.config_text = hello_config();
  const auto hello_frame =
      net::encode_frame(net::MsgType::kHello, 0, net::encode_hello(hello));
  {
    const auto sp = tracer.scope("net.connection.hello", sid);
    conn.on_bytes(hello_frame);
  }
  for (std::size_t pos = 0; pos < stream.size(); pos += kChunk) {
    const auto frame = data_frame(stream, pos, sid);
    const auto sp = tracer.scope("net.connection.on_bytes", sid);
    conn.on_bytes(frame);
  }
  const auto drain = net::encode_frame(net::MsgType::kDrain, sid, {});
  {
    const auto sp = tracer.scope("net.connection.drain", sid);
    conn.on_bytes(drain);
  }
  if (conn.state() != net::Connection::State::kDone) {
    throw std::runtime_error("perfbench: in-memory replay failed: " +
                             conn.error());
  }
  return conn.summary_text();
}

/// net::Connection's pump, replayed on a bare core::Session: feed with
/// backpressure, and at each snapshot point advance, snapshot and write
/// the blob atomically.
struct Pump {
  Pump(core::Session& s, std::string blob_path, Tracer& t, std::uint16_t id)
      : session{s}, path{std::move(blob_path)}, tracer{t}, sid{id} {}

  core::Session& session;
  std::string path;
  Tracer& tracer;
  std::uint16_t sid;
  Time interval{Time::sec(kSnapshotSec)};
  Time next{Time::zero()};
  std::vector<std::uint8_t> last_blob;
  std::size_t last_index{0};  ///< stream index whose feed the blob follows
  std::size_t max_blob{0};

  void start() {
    next = Time::zero();
    while (next <= session.position()) next += interval;
  }

  void run(const aer::EventStream& stream, std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      const aer::Event& ev = stream[k];
      while (!session.feed(ev)) {
        const auto sp = tracer.scope("core.session.advance_to", sid);
        session.advance_to(ev.time);
      }
      if (ev.time < next) continue;
      {
        const auto sp = tracer.scope("core.session.advance_to", sid);
        session.advance_to(next);
      }
      {
        const auto sp = tracer.scope("core.session.snapshot", sid);
        last_blob = session.snapshot();
      }
      {
        const auto sp = tracer.scope("net.blob.write", sid);
        net::write_blob_atomic(path, last_blob);
      }
      last_index = k;
      max_blob = std::max(max_blob, last_blob.size());
      while (next <= ev.time) next += interval;
    }
  }
};

struct SessionReplay {
  std::string summary;
  std::string resumed_summary;  ///< restored from the last blob, then finished
  std::size_t max_blob{0};
};

SessionReplay replay_session(const std::string& dir, std::size_t i,
                             const aer::EventStream& stream, Tracer& tracer) {
  fs::create_directories(dir);
  const std::uint16_t sid = session_id(i);
  std::istringstream config{hello_config()};
  const core::ScenarioConfig scenario = core::load_scenario(config);
  SessionReplay out;

  std::unique_ptr<core::Session> session;
  {
    const auto sp = tracer.scope("core.session.construct", sid);
    session = std::make_unique<core::Session>(scenario);
    session->set_keep_history(false);
  }
  Pump pump{*session, dir + "/" + session_name(i) + ".snap", tracer, sid};
  pump.start();
  for (std::size_t pos = 0; pos < stream.size(); pos += kChunk) {
    const auto sp = tracer.scope("core.session.pump", sid);
    pump.run(stream, pos, std::min(pos + kChunk, stream.size()));
  }
  {
    const auto sp = tracer.scope("core.session.finish", sid);
    out.summary = core::run_summary_text(session->finish());
  }
  out.max_blob = pump.max_blob;

  // Kill-and-resume: restore the last blob into a fresh session, feed the
  // rest of the stream and finish; the summary must not change.
  if (!pump.last_blob.empty()) {
    core::Session resumed{scenario};
    resumed.set_keep_history(false);
    {
      const auto sp = tracer.scope("core.session.restore", sid);
      resumed.restore(pump.last_blob);
    }
    Tracer off{false};
    Pump tail{resumed, dir + "/" + session_name(i) + "-resumed.snap", off, sid};
    tail.start();
    tail.run(stream, pump.last_index + 1, stream.size());
    out.resumed_summary = core::run_summary_text(resumed.finish());
  } else {
    out.resumed_summary = out.summary;
  }
  return out;
}

// --- the workloads ----------------------------------------------------------

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const RunConfig& cfg, bool live) : cfg_{cfg}, live_{live} {}

  void setup() override {
    streams_ = serve_streams(cfg_.seed, kSessions, serve_events(cfg_));
    rig_ = std::make_unique<ServeRig>(cfg_.work_dir + "/serve");
    // Handshake (HELLO with a config to load) once per session.
    for (std::size_t i = 0; i < kSessions; ++i) {
      auto client = net::Client::connect_uds(rig_->socket_path());
      (void)client.hello(session_name(i), hello_config());
      client.bye();
    }
  }

  Round round(Tracer& tracer) override {
    std::vector<std::string> summaries;
    Round r = live_ ? live_round(*rig_, streams_, kLiveRate, summaries, late_ms_)
                    : catchup_round(*rig_, streams_, tracer, summaries);
    summaries_.push_back(std::move(summaries));
    return r;
  }

  void verify(Checks& checks) override {
    Tracer off{false};
    std::vector<std::string> refs;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      refs.push_back(
          replay_connection(cfg_.work_dir + "/ref", i, streams_[i], off));
    }
    for (std::size_t round = 0; round < summaries_.size(); ++round) {
      for (std::size_t i = 0; i < refs.size(); ++i) {
        const bool ok = i < summaries_[round].size() &&
                        summaries_[round][i] == refs[i];
        checks.op(ok, "round " + std::to_string(round) + " session " +
                          std::to_string(i) +
                          ": SUMMARY differs from the in-memory replay");
      }
    }
    if (live_) {
      std::printf("# serve-live: generator late p50 %.3f ms, p99 %.3f ms over "
                  "%zu chunks at %.0f evt/s offered\n",
                  quantile(late_ms_, 0.5), quantile(late_ms_, 0.99),
                  late_ms_.size(), kLiveRate);
    }
  }

  LayerInputs layer_inputs() override {
    LayerInputs in = default_layer_inputs(cfg_);
    in.serve_streams = streams_;
    in.scenario_stream = streams_.front();
    return in;
  }

 private:
  RunConfig cfg_;
  bool live_;
  std::vector<aer::EventStream> streams_;
  std::unique_ptr<ServeRig> rig_;
  std::vector<std::vector<std::string>> summaries_;
  std::vector<double> late_ms_;
};

}  // namespace

std::vector<aer::EventStream> serve_streams(std::uint64_t seed,
                                            std::size_t sessions,
                                            std::size_t events) {
  std::vector<aer::EventStream> out;
  for (std::size_t i = 0; i < sessions; ++i) {
    gen::PoissonSource source{50e3, 256, sub_seed(seed, i)};
    out.push_back(gen::take(source, events));
  }
  return out;
}

std::unique_ptr<Workload> make_serve_catchup(const RunConfig& cfg) {
  return std::make_unique<ServeWorkload>(cfg, false);
}

std::unique_ptr<Workload> make_serve_live(const RunConfig& cfg) {
  return std::make_unique<ServeWorkload>(cfg, true);
}

void probe_serve(const RunConfig& cfg,
                 const std::vector<aer::EventStream>& streams, Tracer& tracer,
                 Checks& checks, Metrics& out) {
  // Passes alternate between the layers, so that drift in the host's speed
  // spreads over all of them rather than landing on one.
  constexpr int kPasses = 3;
  const std::string dir = cfg.work_dir + "/probe-serve";
  double events = 0.0;
  for (const auto& s : streams) events += static_cast<double>(s.size());
  const double per_evt_ns = 1e9 / (events * kPasses);

  double wire_bytes = 0.0;
  std::size_t max_blob = 0;
  std::vector<std::string> refs;
  for (int pass = 0; pass < kPasses; ++pass) {
    // Wire codec: encode every DATA frame, then decode it back.
    for (std::size_t i = 0; i < streams.size(); ++i) {
      net::Decoder decoder;
      bool same = true;
      for (std::size_t pos = 0; pos < streams[i].size(); pos += kChunk) {
        std::vector<std::uint8_t> frame;
        {
          const auto sp = tracer.scope("net.wire.encode", session_id(i));
          frame = data_frame(streams[i], pos, session_id(i));
        }
        if (pass == 0) wire_bytes += static_cast<double>(frame.size());
        aer::EventStream back;
        {
          const auto sp = tracer.scope("net.wire.decode", session_id(i));
          decoder.feed(frame);
          const auto f = decoder.next();
          if (f) back = net::decode_data(f->payload);
        }
        const auto first = streams[i].begin() + static_cast<long>(pos);
        same = same && back.size() == std::min(kChunk, streams[i].size() - pos) &&
               std::equal(back.begin(), back.end(), first);
      }
      checks.op(same, "wire round trip changed session " + std::to_string(i));
    }

    // In-memory Connection, then the same pump on a bare Session.
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const std::string ref =
          replay_connection(dir + "/conn", i, streams[i], tracer);
      if (pass == 0) refs.push_back(ref);
      checks.op(ref == refs[i], "connection replay is not repeatable");
      const SessionReplay s =
          replay_session(dir + "/session", i, streams[i], tracer);
      max_blob = std::max(max_blob, s.max_blob);
      checks.op(s.summary == ref,
                "session replay differs from connection replay");
      checks.op(s.resumed_summary == s.summary,
                "restored session differs from the uninterrupted one");
    }
  }

  // The same streams over the socket, closed loop, untraced.
  std::vector<double> socket_walls;
  {
    ServeRig rig{dir + "/socket"};
    Tracer off{false};
    for (int pass = 0; pass < kPasses; ++pass) {
      std::vector<std::string> summaries;
      socket_walls.push_back(catchup_round(rig, streams, off, summaries).wall_s);
      checks.op(summaries == refs, "socket SUMMARY differs from replay",
                streams.size());
    }
  }

  const double connection = tracer.total("net.connection.on_bytes") +
                            tracer.total("net.connection.drain");
  const double session = tracer.total("core.session.pump") +
                         tracer.total("core.session.finish");
  const double decode = tracer.total("net.wire.decode");
  const auto data_s = tracer.durations("net.connection.on_bytes");
  const auto snap_s = tracer.durations("core.session.snapshot");
  const auto ns = [&](double total_s) { return total_s * per_evt_ns; };
  out["net.wire.encode_ns_per_evt"] = {ns(tracer.total("net.wire.encode")), "ns/evt"};
  out["net.wire.decode_ns_per_evt"] = {ns(decode), "ns/evt"};
  out["net.wire.bytes_per_evt"] = {wire_bytes / events, "count"};
  out["net.connection.data_us_p50"] = {quantile(data_s, 0.5) * 1e6, "us"};
  out["net.connection.data_us_p99"] = {quantile(data_s, 0.99) * 1e6, "us"};
  out["net.connection.self_ns_per_evt"] = {ns(connection - decode - session), "ns/evt"};
  out["net.server.overhead_ns_per_evt"] = {
      (median(socket_walls) - connection / kPasses) / events * 1e9, "ns/evt"};
  out["core.session.feed_ns_per_evt"] = {ns(tracer.self_total("core.session.pump")), "ns/evt"};
  out["core.session.advance_ns_per_evt"] = {ns(tracer.total("core.session.advance_to")), "ns/evt"};
  out["core.session.finish_ms"] = {median(tracer.durations("core.session.finish")) * 1e3, "ms"};
  out["core.session.snapshot_ms_p50"] = {quantile(snap_s, 0.5) * 1e3, "ms"};
  out["core.session.snapshot_ms_p99"] = {quantile(snap_s, 0.99) * 1e3, "ms"};
  out["core.session.snapshots"] = {static_cast<double>(snap_s.size()) / kPasses, "count"};
  out["core.session.snapshot_bytes_max"] = {static_cast<double>(max_blob), "count"};
  out["core.session.restore_ms"] = {median(tracer.durations("core.session.restore")) * 1e3, "ms"};
  out["net.blob.write_ms_p50"] = {median(tracer.durations("net.blob.write")) * 1e3, "ms"};
}

}  // namespace perfbench
