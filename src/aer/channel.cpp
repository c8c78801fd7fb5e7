#include "aer/channel.hpp"

#include <stdexcept>

#include "util/blob.hpp"

namespace aetr::aer {

void AerChannel::violation(const std::string& what) {
  if (strict_) {
    throw std::logic_error("AER protocol violation @" +
                           sched_.now().to_string() + ": " + what);
  }
  violations_.push_back({sched_.now(), what});
  for (auto& fn : violation_observers_) fn(violations_.back());
}

void AerChannel::drive_addr(std::uint16_t addr) {
  if (req_) violation("ADDR changed while REQ asserted");
  addr_ = addr & kAddressMask;
}

void AerChannel::assert_req() {
  if (req_) violation("REQ asserted twice");
  if (ack_) violation("REQ asserted while ACK still high (phase overlap)");
  req_ = true;
  last_req_rise_ = sched_.now();
  if (faults_ != nullptr) {
    auto& plan = faults_->plan().aer;
    if (faults_->roll(fault::Site::kAerWire, plan.drop_req_prob)) {
      // The receiver synchroniser swallows the edge: the wire is high but
      // nobody is told. Only the handshake watchdog can unwedge the link.
      ++faults_->counters().req_dropped;
      return;
    }
    if (faults_->roll(fault::Site::kAerWire, plan.runt_req_prob)) {
      // Pad-driver glitch: the observable level silently collapses for
      // runt_width and recovers. A runt is too short to clock an edge
      // through the synchroniser, but a sample edge landing inside the dip
      // reads REQ low — the front-end's level-confirmed sampling aborts
      // the capture and the watchdog retries it.
      ++faults_->counters().runt_pulses;
      runt_pending_ = true;
      const Time w = plan.runt_width;
      sched_.schedule_after(w, [this] {
        if (runt_pending_) runt_dip_ = true;
      });
      sched_.schedule_after(w + w, [this] {
        runt_pending_ = false;
        runt_dip_ = false;
      });
    }
  }
  for (auto& fn : req_observers_) fn(true, sched_.now());
}

void AerChannel::deassert_req() {
  // A completed phase 3 cancels any in-flight runt overlay.
  runt_pending_ = false;
  runt_dip_ = false;
  if (!req_) violation("REQ deasserted while already low");
  if (!ack_) violation("REQ deasserted before ACK (4-phase order broken)");
  req_ = false;
  for (auto& fn : req_observers_) fn(false, sched_.now());
}

void AerChannel::assert_ack() {
  if (ack_) violation("ACK asserted twice");
  if (!req_) violation("ACK asserted without pending REQ");
  ack_ = true;
  for (auto& fn : ack_observers_) fn(true, sched_.now());
}

void AerChannel::deassert_ack() {
  if (!ack_) violation("ACK deasserted while already low");
  if (req_) violation("ACK deasserted before REQ released (4-phase order broken)");
  if (faults_ != nullptr &&
      faults_->roll(fault::Site::kAerWire, faults_->plan().aer.stuck_ack_prob)) {
    // The falling edge is lost: the wire stays high, the sender never sees
    // phase 4 complete and stalls until the watchdog re-drives ACK low.
    ++faults_->counters().ack_stuck;
    return;
  }
  ack_ = false;
  ++handshakes_;
  for (auto& fn : ack_observers_) fn(false, sched_.now());
}

void AerChannel::save_state(BlobWriter& w) const {
  if (runt_pending_ || runt_dip_) {
    throw std::logic_error("AerChannel: save_state with runt in flight");
  }
  w.b(req_);
  w.b(ack_);
  w.u16(addr_);
  w.time(last_req_rise_);
  w.u64(handshakes_);
  w.b(strict_);
  w.u64(violations_.size());
  for (const auto& v : violations_) {
    w.time(v.time);
    w.str(v.description);
  }
}

void AerChannel::restore_state(BlobReader& r) {
  runt_pending_ = false;
  runt_dip_ = false;
  req_ = r.b();
  ack_ = r.b();
  addr_ = r.u16();
  last_req_rise_ = r.time();
  handshakes_ = r.u64();
  strict_ = r.b();
  violations_.clear();
  const auto nv = r.count(16);  // time + length-prefixed text
  violations_.reserve(nv);
  for (std::size_t i = 0; i < nv; ++i) {
    const Time t = r.time();
    violations_.push_back({t, r.str()});
  }
}

}  // namespace aetr::aer
