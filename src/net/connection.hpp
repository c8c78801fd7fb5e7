// Per-connection protocol state machine for the aetr::net gateway.
//
// A Connection owns one live core::Session and speaks the wire protocol
// (net/wire.hpp) over an abstract byte transport: raw bytes in through
// on_bytes(), raw bytes out through the SendFn the server (or a test)
// injects. No sockets here — the fuzz tests drive a Connection directly
// with crafted byte vectors and assert NACK/close behaviour without a
// kernel in the loop.
//
// Lifecycle:  AwaitHello --HELLO--> Streaming --DRAIN--> Done
// Any protocol violation (garbage before HELLO, DATA before HELLO, credit
// overrun, non-monotonic DATA timestamps, config mismatch on resume,
// malformed payload) sends NACK with a reason and closes; the session is
// abandoned, never half-finished.
//
// Credit/backpressure: the server grants `credit_window` events at
// HELLO_ACK and re-grants after processing each DATA chunk, so a
// well-behaved client can keep at most one window in flight. Session
// backpressure (feed() returning false) is absorbed server-side by
// advancing simulated time — exactly aetr-serve's pump — so the wire-level
// credit never deadlocks against the session's bounded buffer.
//
// Snapshots: with snapshot_dir set and interval > 0, the connection
// checkpoints its session to <snapshot_dir>/<name>.snap at absolute
// simulated-time grid multiples of the interval (atomic tmp+rename), the
// same schedule-as-pure-function-of-the-stream rule as aetr-serve, so a
// killed and resumed gateway continues byte-identically. A client can also
// force one with SNAPSHOT_REQ at a point of its choosing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/session.hpp"
#include "net/wire.hpp"

namespace aetr::net {

/// Server-side settings shared by every connection.
struct GatewayConfig {
  /// Scenario used when HELLO carries an empty config_text.
  core::ScenarioConfig default_scenario;
  /// Per-session summaries land at <out_dir>/summary-<name>.txt ("" = keep
  /// the summary only in the SUMMARY frame, write nothing).
  std::string out_dir;
  /// Per-session snapshots at <snapshot_dir>/<name>.snap ("" = none).
  std::string snapshot_dir;
  /// Periodic snapshot cadence on the simulated clock; <= 0 disables the
  /// periodic schedule (SNAPSHOT_REQ still works when snapshot_dir is set).
  double snapshot_interval_sec = 0.0;
  /// Restore <snapshot_dir>/<name>.snap at HELLO when it exists.
  bool resume = false;
  /// Event credit granted at HELLO_ACK and replenished per DATA chunk.
  std::uint64_t credit_window = 65536;
  /// Drop per-event history in each session (Session::set_keep_history).
  bool keep_history = true;
};

class Connection {
 public:
  using SendFn = std::function<void(const std::vector<std::uint8_t>&)>;

  enum class State : std::uint8_t {
    kAwaitHello,
    kStreaming,
    kDone,   ///< drained: summary written and sent, BYE sent
    kError,  ///< NACKed or framing failure; session abandoned
  };

  Connection(const GatewayConfig& config, std::uint16_t session_id,
             SendFn send);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Feed raw transport bytes. Returns false when the connection is over
  /// (Done or Error) and the transport should close.
  bool on_bytes(const std::uint8_t* data, std::size_t size);
  bool on_bytes(const std::vector<std::uint8_t>& bytes);

  /// Server shutdown (SIGTERM drain): finish the session now, write the
  /// summary, best-effort SUMMARY+BYE. No-op when already Done/Error.
  void drain();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool closed() const {
    return state_ == State::kDone || state_ == State::kError;
  }
  [[nodiscard]] const std::string& session_name() const { return name_; }
  [[nodiscard]] std::uint16_t session_id() const { return session_id_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Summary text of a drained session (empty until Done).
  [[nodiscard]] const std::string& summary_text() const { return summary_; }
  [[nodiscard]] std::uint64_t events_ingested() const { return ingested_; }

 private:
  void handle_frame(const Frame& f);
  void handle_hello(const Frame& f);
  void handle_data(const Frame& f);
  void handle_snapshot_req();
  void finish_session();
  void take_snapshot();
  void protocol_error(const std::string& reason);
  void send_frame(MsgType type, const std::vector<std::uint8_t>& payload);

  GatewayConfig config_;
  std::uint16_t session_id_;
  SendFn send_;
  Decoder decoder_;
  State state_{State::kAwaitHello};
  std::string name_;
  std::string error_;
  std::string summary_;
  std::unique_ptr<core::Session> session_;
  std::uint64_t credit_{0};
  std::uint64_t ingested_{0};
  Time last_time_{Time::zero()};
  bool have_last_time_{false};
  std::optional<core::Ingest> ingest_;  ///< set once the session is live
  std::string snapshot_path_;
  std::uint64_t last_snapshot_bytes_{0};
};

/// Atomic (tmp + rename) blob write shared by the gateway and aetr-serve.
void write_blob_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& blob);
/// Whole-file read; throws std::runtime_error when the file cannot open.
[[nodiscard]] std::vector<std::uint8_t> read_blob(const std::string& path);

}  // namespace aetr::net
