// aetr::net transport benchmarks, printed as a benchmark record fragment
// (record.hpp) for `tools/bench_report.py net`.
//
// Three honest single-host numbers:
//   codec   — pure encode+decode+CRC events/sec, no sockets: the frame
//             format's ceiling and the per-event framing overhead.
//   ingest  — one session over a loopback Unix socket, end to end (client
//             chunking, credit round trips, server pump into the Session).
//   scaling — total events/sec across 1/2/4 concurrent interleaved
//             sessions on the single-threaded server (suffix _sN). The
//             poll loop serialises sessions, so the win is multiplexing,
//             not parallel speedup.
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gen/sources.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "record.hpp"

namespace {

using namespace aetr;

double now_wall(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

aer::EventStream make_stream(std::size_t n, std::uint64_t seed) {
  gen::PoissonSource source{50e3, 256, seed};
  return gen::take(source, n);
}

// Pure codec: frame + CRC + decode round trip, no kernel in the loop.
double codec_events_per_sec(const aer::EventStream& stream, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t pos = 0;
    std::uint64_t checksum = 0;
    net::Decoder dec;
    while (pos < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(512, stream.size() - pos);
      dec.feed(net::encode_frame(net::MsgType::kData, 1,
                                 net::encode_data(stream, pos, chunk)));
      const auto frame = dec.next();
      if (!frame) throw std::runtime_error{"codec bench: frame did not pop"};
      checksum += net::decode_data(frame->payload).size();
      pos += chunk;
    }
    if (checksum != stream.size()) {
      throw std::runtime_error{"codec bench: event count mismatch"};
    }
    const double wall = now_wall(t0);
    const double rate =
        wall > 0.0 ? static_cast<double>(stream.size()) / wall : 0.0;
    if (rate > best) best = rate;
  }
  return best;
}

// `sessions` concurrent interleaved clients against one server process
// (in-process server thread, real loopback UDS). Returns total events/sec.
double socket_events_per_sec(const std::string& sock, std::size_t sessions,
                             const aer::EventStream& stream) {
  net::ServerOptions options;
  options.uds_path = sock;
  options.gateway.keep_history = false;
  options.exit_after_sessions = sessions;
  net::Server server{std::move(options)};
  std::thread t{[&server] { server.run(); }};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<net::Client> clients;
  for (std::size_t i = 0; i < sessions; ++i) {
    clients.push_back(net::Client::connect_uds(sock));
    (void)clients.back().hello("bench-" + std::to_string(i), "");
  }
  std::vector<std::size_t> pos(sessions, 0);
  net::SendOptions chunked;
  chunked.chunk = 512;
  bool busy = true;
  while (busy) {
    busy = false;
    for (std::size_t i = 0; i < sessions; ++i) {
      pos[i] += clients[i].send_some(stream, pos[i], 512, chunked);
      busy = busy || pos[i] < stream.size();
    }
  }
  for (auto& c : clients) (void)c.drain();
  const double wall = now_wall(t0);
  t.join();
  const double total = static_cast<double>(stream.size() * sessions);
  return wall > 0.0 ? total / wall : 0.0;
}

}  // namespace

int main() {
  constexpr std::size_t kCodecEvents = 200'000;
  constexpr std::size_t kSocketEvents = 20'000;
  constexpr int kReps = 3;

  const auto sock_dir = std::filesystem::temp_directory_path() / "aetrnetbench";
  std::filesystem::create_directories(sock_dir);
  const std::string sock = (sock_dir / "gw.sock").string();

  const auto codec_stream = make_stream(kCodecEvents, 1);
  const auto socket_stream = make_stream(kSocketEvents, 2);

  aetr::bench::Record record;
  record.metric("codec_events_per_sec",
                codec_events_per_sec(codec_stream, kReps));
  // Frame overhead: wire bytes per event over a full-size chunk, the codec
  // tax the SERVICE.md wire-format table promises (10 B payload/event plus
  // amortised 16 B header+CRC per 512-event frame).
  record.metric("wire_bytes_per_event",
                static_cast<double>(
                    net::encode_frame(net::MsgType::kData, 1,
                                      net::encode_data(codec_stream, 0, 512))
                        .size()) /
                    512.0);

  for (const std::size_t sessions : {1u, 2u, 4u}) {
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double rate = socket_events_per_sec(sock, sessions, socket_stream);
      if (rate > best) best = rate;
    }
    const std::string at = "_s" + std::to_string(sessions);
    record.metric("ingest_events_per_sec_total" + at, best);
    record.metric("ingest_events_per_sec_per_session" + at,
                  best / static_cast<double>(sessions));
  }

  std::error_code ec;
  std::filesystem::remove_all(sock_dir, ec);
  return record.print();
}
