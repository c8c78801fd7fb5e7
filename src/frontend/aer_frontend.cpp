#include "frontend/aer_frontend.hpp"

#include <stdexcept>
#include <utility>

#include "util/blob.hpp"

namespace aetr::frontend {

AerFrontEnd::AerFrontEnd(sim::Scheduler& sched, aer::AerChannel& channel,
                         clockgen::ClockGenerator& clkgen,
                         FrontEndConfig config)
    : sched_{sched},
      channel_{channel},
      clkgen_{clkgen},
      cfg_{config},
      rng_{config.seed},
      tel_{sched.telemetry(), "frontend"} {
  if (auto* m = tel_.metrics()) {
    m->probe("frontend.events", [this] {
      return static_cast<double>(events_);
    });
    m->probe("frontend.saturated", [this] {
      return static_cast<double>(saturated_);
    });
    m->probe("frontend.metastable", [this] {
      return static_cast<double>(metastable_);
    });
    m->probe("frontend.handshakes", [this] {
      return static_cast<double>(channel_.handshakes());
    });
    // Inter-capture intervals, 1 µs .. 10 s (the paper's ISI span).
    isi_hist_ = m->log_histogram("frontend.isi_s", 1e-6, 10.0, 4);
  }
  channel_.on_req_change([this](bool level, Time t) {
    if (level) {
      handle_request(t);
    } else {
      // Phase 3 observed; close the handshake after the async ACK path.
      sched_.schedule_after(cfg_.ack_fall_delay,
                            [this] { channel_.deassert_ack(); });
    }
  });
}

bool AerFrontEnd::resync(Time now) {
  if (in_flight_ || !channel_.req()) return false;
  handle_request(now);
  return true;
}

std::uint32_t AerFrontEnd::begin_capture(Capture& c, std::uint16_t addr,
                                         Time t) {
  std::uint32_t sync = cfg_.sync_stages;
  if (cfg_.metastability_prob > 0.0 &&
      rng_.bernoulli(cfg_.metastability_prob)) {
    ++sync;  // the first FF went metastable; one extra edge to resolve
    ++metastable_;
    tel_.instant("metastable", t);
  }
  c.request = aer::Event{addr, t};
  // The address register can latch a corrupted bus (fault injection); the
  // ground-truth record keeps the address the sender actually drove.
  c.latched = addr;
  if (faults_ != nullptr &&
      faults_->roll(fault::Site::kAddrBus,
                    faults_->plan().aer.addr_bit_flip_prob)) {
    c.latched ^= static_cast<std::uint16_t>(
        1u << faults_->pick_bit(fault::Site::kAddrBus, aer::kAddressBits));
    ++faults_->counters().addr_flips;
  }
  if (tel_.tracing()) [[unlikely]] {
    tel_.begin("capture", t, {{"addr", static_cast<double>(addr)}});
  }
  return sync;
}

void AerFrontEnd::handle_request(Time t) {
  Capture c{};
  const std::uint32_t sync = begin_capture(c, channel_.addr(), t);
  in_flight_ = true;
  clkgen_.capture_request(
      sync, [this, c](Time edge, std::uint64_t ticks, bool saturated) mutable {
        in_flight_ = false;
        if (faults_ != nullptr && !channel_.req()) {
          // Level-confirmed sampling: the REQ level collapsed under us (a
          // runt dip). Abort the capture — no word, no ACK; the watchdog
          // re-delivers the request once the level has recovered.
          ++faults_->counters().runts_filtered;
          tel_.end("capture", edge);
          return;
        }
        c.sample = {edge, ticks, saturated};
        commit_capture(c);
        sched_.schedule_after(cfg_.ack_rise_delay,
                              [this] { channel_.assert_ack(); });
      });
}

AerFrontEnd::Capture AerFrontEnd::capture_at(std::uint16_t addr,
                                             Time req_abs) {
  Capture c{};
  c.sample = clkgen_.capture_now(begin_capture(c, addr, req_abs), req_abs);
  return c;
}

void AerFrontEnd::commit_capture(const Capture& c) {
  // At the sample edge: ADDR was stable since before REQ, so the address
  // register holds it; the counter value is latched with it.
  const Time edge = c.sample.edge;
  const aer::AetrWord word =
      c.sample.saturated ? aer::AetrWord::saturated(c.latched)
                         : aer::AetrWord::make(c.latched, c.sample.ticks);
  ++events_;
  if (word.is_saturated()) {
    ++saturated_;
    // The timestamp counter rolled over its measurable span: the clock
    // had shut down and the word carries the saturation tag.
    tel_.instant("ts_rollover", edge);
  }
  tel_.end("capture", edge);
  if (isi_hist_ != nullptr) [[unlikely]] {
    if (have_last_edge_) isi_hist_->add((edge - last_edge_).to_sec());
    last_edge_ = edge;
    have_last_edge_ = true;
  }
  if (cfg_.keep_records) {
    if (cfg_.max_records > 0 && records_.size() >= cfg_.max_records) {
      records_.erase(records_.begin(),
                     records_.begin() +
                         static_cast<std::ptrdiff_t>(records_.size() / 2));
    }
    records_.push_back(CaptureRecord{c.request, edge, word});
  }
  if (word_fn_) word_fn_(word, edge);
}

void AerFrontEnd::save_state(BlobWriter& w) const {
  if (in_flight_) {
    throw std::logic_error("AerFrontEnd: save_state with capture in flight");
  }
  const auto rs = rng_.state();
  for (auto s : rs) w.u64(s);
  w.u64(records_.size());
  for (const auto& rec : records_) {
    w.u16(rec.request.address);
    w.time(rec.request.time);
    w.time(rec.sample_edge);
    w.u32(rec.word.raw());
  }
  w.u64(events_);
  w.u64(saturated_);
  w.u64(metastable_);
  w.time(last_edge_);
  w.b(have_last_edge_);
}

void AerFrontEnd::restore_state(BlobReader& r) {
  in_flight_ = false;
  std::array<std::uint64_t, 4> rs{};
  for (auto& s : rs) s = r.u64();
  rng_.set_state(rs);
  records_.clear();
  const auto nr = r.count(22);  // u16 + time + time + u32
  records_.reserve(nr);
  for (std::size_t i = 0; i < nr; ++i) {
    CaptureRecord rec;
    rec.request.address = r.u16();
    rec.request.time = r.time();
    rec.sample_edge = r.time();
    rec.word = aer::AetrWord{r.u32()};
    records_.push_back(rec);
  }
  events_ = r.u64();
  saturated_ = r.u64();
  metastable_ = r.u64();
  last_edge_ = r.time();
  have_last_edge_ = r.b();
}

}  // namespace aetr::frontend
