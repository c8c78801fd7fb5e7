// Incremental run API: a core::Session is a live simulated system that
// accepts AER events as they arrive (feed), advances simulated time under
// caller control with bounded internal buffering (advance_to + the
// backpressure signal), and can serialize its complete state to a versioned
// binary blob at any quiescent point (snapshot/restore) such that a killed
// and resumed run is byte-identical to the same run left uninterrupted.
//
// The batch entry point run_scenario() is a thin wrapper over this class:
// construct, feed the whole stream, finish(). The wrapper reproduces the
// pre-Session runner call-for-call, so batch results (including the
// idle-skip fast path and telemetry artifacts) are bit-identical.
//
// Lifecycle:
//
//   ScenarioConfig cfg = ...;
//   Session s{cfg};
//   while (events_arrive) {
//     if (!s.feed(ev)) { /* backpressure: advance or drop */ }
//     s.advance_to(ev.time);          // simulate up to the stream position
//     if (checkpoint_due) blob = s.snapshot();
//   }
//   RunResult r = s.finish();          // flush, cooldown, harvest, report
//
// Resume after a crash:
//
//   Session s{cfg};                    // same config (fingerprint-checked)
//   s.restore(blob);                   // byte-identical continuation point
//   ... keep feeding from the stream position in the blob ...
//
// See docs/SERVICE.md for the snapshot format and backpressure contract.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scenario.hpp"

namespace aetr::core {

class Session {
 public:
  /// Snapshot blob format version (bumped on any layout change; restore
  /// rejects blobs whose version, CRC-32 trailer or config fingerprint
  /// does not match). 2: CRC-32 trailer, CAVIAR violation count.
  static constexpr std::uint32_t kSnapshotVersion = 2;

  /// Build the full system (scheduler, interface, sender, checker, MCU,
  /// telemetry, fault injector) exactly as run_scenario always has.
  /// Construction schedules nothing and does not advance time. Throws
  /// std::invalid_argument via ScenarioConfig::validate().
  explicit Session(const ScenarioConfig& scenario);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- streaming input ------------------------------------------------------

  /// Buffer one event for later submission. Events must be fed in
  /// non-decreasing time order (throws std::invalid_argument otherwise).
  /// Returns false — and does NOT accept the event — when the internal
  /// buffer already holds session.max_buffered_events; the caller should
  /// advance_to() to drain the buffer, then retry.
  bool feed(const aer::Event& ev);

  /// Feed a chunk; stops at the first refusal. Returns how many events
  /// were accepted (== events.size() unless backpressure hit).
  std::size_t feed(const aer::EventStream& events);

  /// Batch replay: buffer the whole stream at once, ignoring the
  /// backpressure cap. This is what run_scenario() uses — a batch caller
  /// already holds the materialised stream, so bounding the session's
  /// copy of it protects nothing.
  void feed_all(const aer::EventStream& events);

  /// Fed-but-not-yet-submitted events currently held.
  [[nodiscard]] std::size_t buffered() const;

  /// True when feed() would refuse input right now.
  [[nodiscard]] bool backpressure() const;

  /// Total events accepted over the session's lifetime.
  [[nodiscard]] std::uint64_t events_fed() const;

  // --- simulated time -------------------------------------------------------

  /// Submit every buffered event with time <= t to the sender, then run
  /// the scheduler up to exactly t (events beyond t stay buffered). A t in
  /// the past is clamped to position(). First call arms the session's
  /// standing services (metrics grid, handshake watchdog, runner span).
  void advance_to(Time t);

  /// Current simulated time.
  [[nodiscard]] Time position() const;

  // --- snapshot / restore ---------------------------------------------------

  /// Serialize the complete simulator state to a versioned blob. The
  /// session first settles: input submission pauses while the scheduler
  /// drains in-flight transients (a handshake mid-flight, an I2S drain)
  /// until every pending scheduler event is a standing timer it knows
  /// how to re-arm (metrics grid tick, watchdog check, drain-timeout
  /// deadlines, the sender's next launch). Settling dispatches that
  /// work at exactly the times an uninterrupted run would, but it
  /// advances position() to the quiescent point — so a snapshot is a
  /// synchronization point in the run, not an invisible observation: an
  /// event fed later whose timestamp falls inside the settled window is
  /// a late arrival and launches when the system next sees it. The run
  /// remains a deterministic function of (stream, snapshot schedule),
  /// and a restored session continues byte-identically to the run that
  /// took the snapshot. Throws std::runtime_error if the system refuses
  /// to settle (pathological configs only).
  [[nodiscard]] std::vector<std::uint8_t> snapshot();

  /// Restore a blob into this freshly constructed session (same
  /// ScenarioConfig — the embedded config fingerprint is checked, throws
  /// std::runtime_error on any mismatch). After restore the session
  /// continues byte-identically to the run that took the snapshot.
  void restore(const std::vector<std::uint8_t>& blob);

  // --- completion -----------------------------------------------------------

  /// Submit all remaining buffered input, run the stream to completion
  /// (final flush, cooldown, MCU batch flush, telemetry artifacts) and
  /// assemble the RunResult. A virgin session (only feeds, no advance/
  /// restore) takes the idle-skip fast path when the scenario is eligible,
  /// exactly like batch run_scenario. The session is finished afterwards:
  /// further feed/advance/snapshot calls throw std::logic_error.
  [[nodiscard]] RunResult finish();

  [[nodiscard]] bool finished() const;

  // --- service-mode knobs / component access --------------------------------

  /// Drop per-event history (sender sent-log, front-end capture records,
  /// MCU decoded-event log, delivery-latency harvest) so an endless ingest
  /// loop and its snapshots stay at a steady-state size. Call before the
  /// first advance; restore() re-applies the snapshot's setting. RunResult
  /// fields derived from the dropped logs (records, decoded, delivery
  /// latencies, error stats over records) come back empty; counters are
  /// unaffected.
  void set_keep_history(bool keep);

  /// The resolved telemetry session (null when telemetry is off).
  [[nodiscard]] telemetry::TelemetrySession* telemetry_session();

  [[nodiscard]] AerToI2sInterface& interface();
  [[nodiscard]] sim::Scheduler& scheduler();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The ingest step of both streaming front doors (aetr-serve run and
/// net::Connection): feed through backpressure, and snapshot at absolute
/// multiples of `every` on the simulated clock (<= 0: never), so the
/// schedule is a pure function of the stream, not of wall time or of where
/// a killed run resumed. Construct after any restore().
class Ingest {
 public:
  Ingest(Session& session, Time every) : session_{&session}, every_{every} {
    if (every_ > Time::zero()) next_ = after(session.position());
  }

  /// Feed `ev`; when a snapshot falls due, advance the session to the due
  /// instant and call on_snapshot() there.
  template <typename OnSnapshot>
  void push(const aer::Event& ev, OnSnapshot&& on_snapshot) {
    // A full buffer holds only events at or before ev.time: advancing to
    // the stream position drains it.
    while (!session_->feed(ev)) session_->advance_to(ev.time);
    if (every_ > Time::zero() && ev.time >= next_) {
      session_->advance_to(next_);
      on_snapshot();
      next_ = after(ev.time);
    }
  }

 private:
  /// The first multiple of the interval strictly after `t` (t >= 0).
  [[nodiscard]] Time after(Time t) const { return every_ * (t / every_ + 1); }

  Session* session_;
  Time every_;
  Time next_{Time::zero()};
};

}  // namespace aetr::core
