#include "aer/agents.hpp"

#include <algorithm>
#include <cassert>

#include "util/blob.hpp"

namespace aetr::aer {

AerSender::AerSender(sim::Scheduler& sched, AerChannel& channel,
                     SenderTiming timing)
    : sched_{sched}, channel_{channel}, timing_{timing} {
  channel_.on_ack_change([this](bool level, Time t) {
    if (level) {
      // Phase 2 done: receiver latched the address; release REQ.
      sched_.schedule_after(timing_.req_release,
                            [this] { channel_.deassert_req(); });
    } else {
      // Phase 4 done: handshake closed.
      latency_.add((t - req_rise_time_).to_sec());
      busy_ = false;
      earliest_next_launch_ = t + timing_.min_gap;
      maybe_launch();
    }
  });
}

void AerSender::submit(const Event& ev) {
  assert(queue_.empty() || queue_.back().time <= ev.time);
  queue_.push_back(ev);
  maybe_launch();
}

void AerSender::submit_stream(const EventStream& events) {
  for (const auto& ev : events) submit(ev);
}

void AerSender::maybe_launch() {
  if (busy_ || queue_.empty() || pending_launch_.valid()) return;
  const Event ev = queue_.front();
  const Time launch_at =
      std::max({ev.time, earliest_next_launch_, sched_.now()});
  pending_launch_ = sched_.schedule_at(launch_at, [this] {
    pending_launch_ = sim::EventId{};
    if (busy_ || queue_.empty()) return;
    const Event ev2 = queue_.front();
    queue_.pop_front();
    launch(ev2);
  });
}

void AerSender::launch(const Event& ev) {
  busy_ = true;
  channel_.drive_addr(ev.address);
  sched_.schedule_after(timing_.addr_setup, [this, ev] {
    req_rise_time_ = sched_.now();
    if (keep_sent_) sent_.push_back(Event{ev.address, req_rise_time_});
    channel_.assert_req();
  });
}

void AerSender::save_state(BlobWriter& w) const {
  w.u64(queue_.size());
  for (const auto& ev : queue_) {
    w.u16(ev.address);
    w.time(ev.time);
  }
  w.u64(sent_.size());
  for (const auto& ev : sent_) {
    w.u16(ev.address);
    w.time(ev.time);
  }
  const auto ls = latency_.state();
  w.u64(ls.n);
  w.f64(ls.mean);
  w.f64(ls.m2);
  w.f64(ls.min);
  w.f64(ls.max);
  w.time(req_rise_time_);
  w.time(earliest_next_launch_);
  w.b(busy_);
  w.b(keep_sent_);
  w.b(pending_launch_.valid());
}

void AerSender::restore_state(BlobReader& r) {
  queue_.clear();
  const auto nq = r.count(10);  // u16 + time
  for (std::size_t i = 0; i < nq; ++i) {
    const auto addr = r.u16();
    queue_.push_back(Event{addr, r.time()});
  }
  sent_.clear();
  const auto ns = r.count(10);
  sent_.reserve(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    const auto addr = r.u16();
    sent_.push_back(Event{addr, r.time()});
  }
  RunningStats::State ls{};
  ls.n = r.u64();
  ls.mean = r.f64();
  ls.m2 = r.f64();
  ls.min = r.f64();
  ls.max = r.f64();
  latency_.set_state(ls);
  req_rise_time_ = r.time();
  earliest_next_launch_ = r.time();
  busy_ = r.b();
  keep_sent_ = r.b();
  const bool had_pending = r.b();
  // Re-arm the launch timer. maybe_launch() recomputes
  // max(front.time, earliest_next_launch_, now()); since the timer was
  // pending at snapshot time t, its launch time was > t >= submit time, so
  // the max is attained by one of the two serialized terms and the re-armed
  // absolute time is identical to the saved run's.
  if (had_pending) maybe_launch();
}

ImmediateAckReceiver::ImmediateAckReceiver(sim::Scheduler& sched,
                                           AerChannel& channel, Time ack_delay,
                                           Time ack_release)
    : sched_{sched},
      channel_{channel},
      ack_delay_{ack_delay},
      ack_release_{ack_release} {
  channel_.on_req_change([this](bool level, Time t) {
    if (level) {
      received_.push_back(Event{channel_.addr(), t});
      sched_.schedule_after(ack_delay_, [this] { channel_.assert_ack(); });
    } else {
      sched_.schedule_after(ack_release_, [this] { channel_.deassert_ack(); });
    }
  });
}

}  // namespace aetr::aer
