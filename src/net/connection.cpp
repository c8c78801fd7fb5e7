#include "net/connection.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/config_io.hpp"
#include "core/summary.hpp"

namespace aetr::net {
namespace {

bool file_exists(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  return static_cast<bool>(f);
}

/// Session names become file names (summary-<name>.txt, <name>.snap), so
/// the accepted alphabet is deliberately narrow.
bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) == 0 && c != '-' && c != '_' && c != '.') return false;
  }
  return name.front() != '.';
}

}  // namespace

void write_blob_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& blob) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f{tmp, std::ios::binary | std::ios::trunc};
    if (!f) throw std::runtime_error("net: cannot open " + tmp);
    f.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    if (!f) throw std::runtime_error("net: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("net: cannot rename " + tmp + " to " + path);
  }
}

std::vector<std::uint8_t> read_blob(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  if (!f) throw std::runtime_error("net: cannot open " + path);
  return std::vector<std::uint8_t>{std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>()};
}

Connection::Connection(const GatewayConfig& config, std::uint16_t session_id,
                       SendFn send)
    : config_{config}, session_id_{session_id}, send_{std::move(send)} {}

Connection::~Connection() = default;

bool Connection::on_bytes(const std::uint8_t* data, std::size_t size) {
  if (closed()) return false;
  decoder_.feed(data, size);
  while (!closed()) {
    if (decoder_.failed()) {
      protocol_error("framing: " + decoder_.error());
      break;
    }
    const auto frame = decoder_.next();
    if (!frame) {
      if (decoder_.failed()) protocol_error("framing: " + decoder_.error());
      break;
    }
    handle_frame(*frame);
  }
  return !closed();
}

bool Connection::on_bytes(const std::vector<std::uint8_t>& bytes) {
  return on_bytes(bytes.data(), bytes.size());
}

void Connection::send_frame(MsgType type,
                            const std::vector<std::uint8_t>& payload) {
  if (send_) send_(encode_frame(type, session_id_, payload));
}

void Connection::protocol_error(const std::string& reason) {
  if (state_ == State::kError) return;
  error_ = reason;
  send_frame(MsgType::kNack, encode_nack(Nack{reason}));
  state_ = State::kError;
}

void Connection::handle_frame(const Frame& f) {
  // Clients address the gateway, not a session, until HELLO_ACK hands out
  // an id; after that both spellings are accepted.
  if (f.session_id != 0 && f.session_id != session_id_) {
    protocol_error("frame addressed to wrong session id " +
                   std::to_string(f.session_id));
    return;
  }
  switch (f.type) {
    case MsgType::kHello:
      handle_hello(f);
      return;
    case MsgType::kData:
      handle_data(f);
      return;
    case MsgType::kSnapshotReq:
      handle_snapshot_req();
      return;
    case MsgType::kDrain:
      if (state_ != State::kStreaming) {
        protocol_error("DRAIN before HELLO");
        return;
      }
      finish_session();
      return;
    case MsgType::kBye:
      // Abandon without a summary: the client walked away mid-stream.
      state_ = State::kDone;
      return;
    case MsgType::kHelloAck:
    case MsgType::kCredit:
    case MsgType::kNack:
    case MsgType::kSnapshotAck:
    case MsgType::kSummary:
      protocol_error(std::string{"unexpected "} + to_string(f.type) +
                     " from client");
      return;
  }
  protocol_error("unhandled frame type");
}

void Connection::handle_hello(const Frame& f) {
  if (state_ != State::kAwaitHello) {
    protocol_error("duplicate HELLO");
    return;
  }
  Hello hello;
  try {
    hello = decode_hello(f.payload);
  } catch (const std::exception& e) {
    protocol_error(std::string{"malformed HELLO: "} + e.what());
    return;
  }
  if (hello.protocol_version != kProtocolVersion) {
    protocol_error("protocol version mismatch: client " +
                   std::to_string(hello.protocol_version) + ", server " +
                   std::to_string(kProtocolVersion));
    return;
  }
  if (!valid_session_name(hello.session_name)) {
    protocol_error("invalid session name");
    return;
  }
  name_ = hello.session_name;

  core::ScenarioConfig scenario = config_.default_scenario;
  if (!hello.config_text.empty()) {
    try {
      std::istringstream is{hello.config_text};
      scenario = core::load_scenario(is);
    } catch (const std::exception& e) {
      protocol_error(std::string{"bad config: "} + e.what());
      return;
    }
  }
  const std::string canonical = core::dump_scenario(scenario);

  try {
    session_ = std::make_unique<core::Session>(scenario);
  } catch (const std::exception& e) {
    protocol_error(std::string{"scenario rejected: "} + e.what());
    return;
  }
  if (!config_.keep_history) session_->set_keep_history(false);

  if (!config_.snapshot_dir.empty()) {
    snapshot_path_ = config_.snapshot_dir + "/" + name_ + ".snap";
  }
  if (config_.resume && !snapshot_path_.empty() &&
      file_exists(snapshot_path_)) {
    try {
      session_->restore(read_blob(snapshot_path_));
    } catch (const std::exception& e) {
      protocol_error(std::string{"resume failed: "} + e.what());
      return;
    }
  }

  // A resumed gateway checkpoints at the same simulated instants the killed
  // one would have (core::Ingest, shared with aetr-serve run).
  ingest_.emplace(*session_, snapshot_path_.empty()
                                 ? Time::zero()
                                 : Time::sec(config_.snapshot_interval_sec));

  credit_ = config_.credit_window;
  HelloAck ack;
  ack.config_fingerprint = config_fingerprint(canonical);
  ack.events_fed = session_->events_fed();
  ack.position_ps = session_->position().count_ps();
  ack.credit = credit_;
  state_ = State::kStreaming;
  send_frame(MsgType::kHelloAck, encode_hello_ack(ack));
}

void Connection::handle_data(const Frame& f) {
  if (state_ != State::kStreaming) {
    protocol_error("DATA before HELLO");
    return;
  }
  aer::EventStream events;
  try {
    events = decode_data(f.payload);
  } catch (const std::exception& e) {
    protocol_error(std::string{"malformed DATA: "} + e.what());
    return;
  }
  if (events.size() > credit_) {
    protocol_error("credit overrun: " + std::to_string(events.size()) +
                   " events against " + std::to_string(credit_) + " credit");
    return;
  }
  credit_ -= events.size();
  for (const aer::Event& ev : events) {
    if (have_last_time_ && ev.time < last_time_) {
      protocol_error("non-monotonic DATA timestamp");
      return;
    }
    last_time_ = ev.time;
    have_last_time_ = true;
    ingest_->push(ev, [this] { take_snapshot(); });
    ++ingested_;
  }
  // Replenish: the window re-opens as soon as the chunk is in the session.
  credit_ += events.size();
  send_frame(MsgType::kCredit,
             encode_credit(Credit{static_cast<std::uint64_t>(events.size())}));
}

void Connection::handle_snapshot_req() {
  if (state_ != State::kStreaming) {
    protocol_error("SNAPSHOT_REQ before HELLO");
    return;
  }
  if (snapshot_path_.empty()) {
    protocol_error("SNAPSHOT_REQ but the gateway has no snapshot dir");
    return;
  }
  take_snapshot();
  SnapshotAck ack;
  ack.position_ps = session_->position().count_ps();
  ack.blob_bytes = last_snapshot_bytes_;
  send_frame(MsgType::kSnapshotAck, encode_snapshot_ack(ack));
}

void Connection::take_snapshot() {
  const std::vector<std::uint8_t> blob = session_->snapshot();
  last_snapshot_bytes_ = blob.size();
  write_blob_atomic(snapshot_path_, blob);
}

void Connection::finish_session() {
  core::RunResult result;
  try {
    result = session_->finish();
  } catch (const std::exception& e) {
    protocol_error(std::string{"finish failed: "} + e.what());
    return;
  }
  summary_ = core::run_summary_text(result);
  if (!config_.out_dir.empty()) {
    core::write_run_summary_file(
        config_.out_dir + "/summary-" + name_ + ".txt", result);
  }
  send_frame(MsgType::kSummary, encode_summary(Summary{summary_}));
  send_frame(MsgType::kBye, {});
  state_ = State::kDone;
}

void Connection::drain() {
  if (closed()) return;
  if (state_ == State::kAwaitHello) {
    // Nothing was set up yet; just close.
    state_ = State::kDone;
    return;
  }
  finish_session();
}

}  // namespace aetr::net
