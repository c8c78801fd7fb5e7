#include "core/interface.hpp"

#include "util/blob.hpp"

namespace aetr::core {

AerToI2sInterface::AerToI2sInterface(sim::Scheduler& sched,
                                     InterfaceConfig config,
                                     fault::FaultInjector* faults)
    : sched_{sched},
      cfg_{config},
      channel_{sched},
      clkgen_{sched, config.clock},
      front_end_{sched, channel_, clkgen_, config.front_end},
      fifo_{config.fifo},
      i2s_{sched, fifo_, config.i2s},
      spi_slave_{bus_},
      irq_{sched},
      power_{config.calibration} {
  if (faults != nullptr) {
    channel_.attach_faults(faults);
    front_end_.attach_faults(faults);
    clkgen_.attach_faults(faults);
    fifo_.attach_faults(faults);
    i2s_.attach_faults(faults);
    spi_slave_.attach_faults(faults);
  }
  // Crossbar: front-end AETR words flow into the FIFO; the FIFO threshold
  // kicks the I2S drain and the INT sources feed the controller.
  front_end_.on_word([this](aer::AetrWord word, Time now) {
    const bool was_empty = fifo_.empty();
    const std::uint64_t overflows_before = fifo_.overflows();
    fifo_.push(word, now);
    if (fifo_.overflows() != overflows_before) {
      // A word was lost under either overflow policy; the FIFO's counter is
      // the single source of truth for the drop.
      irq_.raise(Irq::kFifoOverflow);
    }
    if (word.is_saturated()) irq_.raise(Irq::kWakeup);
    if (cfg_.drain_timeout > Time::zero() && was_empty) {
      // Latency bound: this word must leave within drain_timeout. Tracked
      // as an explicit deadline so a session snapshot can re-arm it.
      arm_drain_deadline(now + cfg_.drain_timeout);
    }
  });
  fifo_.on_threshold([this](Time now) {
    irq_.raise(Irq::kBatchReady);
    // In SPI read-out mode the MCU polls the buffer itself (the abstract's
    // "carriable by standard interfaces (e.g. I2S, SPI)"); the interrupt
    // still tells it a batch is waiting.
    if (!spi_readout_) i2s_.request_drain(now);
  });
  i2s_.on_drain_done([this](Time) { irq_.raise(Irq::kDrainDone); });
  channel_.on_violation([this](const aer::ProtocolViolation&) {
    irq_.raise(Irq::kProtocolError);
  });
  map_registers();
}

void AerToI2sInterface::arm_drain_deadline(Time deadline) {
  drain_deadlines_.push_back(deadline);
  sched_.schedule_at(deadline, [this] {
    if (!drain_deadlines_.empty()) drain_deadlines_.pop_front();
    if (!fifo_.empty()) i2s_.request_drain(sched_.now());
  });
}

void AerToI2sInterface::map_registers() {
  using spi::Reg;
  bus_.map(
      Reg::kThetaDiv,
      [this] {
        return static_cast<std::uint8_t>(clkgen_.config().theta_div);
      },
      [this](std::uint8_t v) {
        if (v > 0) clkgen_.set_theta_div(v);
      });
  bus_.map(
      Reg::kNDiv,
      [this] { return static_cast<std::uint8_t>(clkgen_.config().n_div); },
      [this](std::uint8_t v) {
        if (v <= 30) clkgen_.set_n_div(v);
      });
  bus_.map(
      Reg::kBatchLo,
      [this] {
        return static_cast<std::uint8_t>(fifo_.config().batch_threshold &
                                         0xFFu);
      },
      [this](std::uint8_t v) {
        const std::size_t hi = fifo_.config().batch_threshold & ~std::size_t{0xFF};
        const std::size_t next = hi | v;
        if (next >= 1 && next <= fifo_.capacity()) {
          fifo_.set_batch_threshold(next);
        }
      });
  bus_.map(
      Reg::kBatchHi,
      [this] {
        return static_cast<std::uint8_t>(
            (fifo_.config().batch_threshold >> 8) & 0xFFu);
      },
      [this](std::uint8_t v) {
        const std::size_t lo = fifo_.config().batch_threshold & 0xFFu;
        const std::size_t next = (static_cast<std::size_t>(v) << 8) | lo;
        if (next >= 1 && next <= fifo_.capacity()) {
          fifo_.set_batch_threshold(next);
        }
      });
  bus_.map(
      Reg::kCtrl,
      [this] {
        std::uint8_t v = 0;
        if (clkgen_.config().divide_enabled) v |= 1u;
        if (clkgen_.config().shutdown_enabled) v |= 2u;
        if (spi_readout_) v |= 4u;
        return v;
      },
      [this](std::uint8_t v) {
        if (((v & 1u) != 0) != clkgen_.config().divide_enabled) {
          clkgen_.set_divide_enabled((v & 1u) != 0);
        }
        if (((v & 2u) != 0) != clkgen_.config().shutdown_enabled) {
          clkgen_.set_shutdown_enabled((v & 2u) != 0);
        }
        spi_readout_ = (v & 4u) != 0;
      });
  bus_.map(Reg::kStatus, [this] {
    std::uint8_t v = 0;
    if (i2s_.draining()) v |= 1u;
    if (clkgen_.asleep()) v |= 2u;
    return v;
  });
  bus_.map(Reg::kFifoLo, [this] {
    return static_cast<std::uint8_t>(fifo_.size() & 0xFFu);
  });
  bus_.map(Reg::kFifoHi, [this] {
    return static_cast<std::uint8_t>((fifo_.size() >> 8) & 0xFFu);
  });
  bus_.map(
      Reg::kIntStatus, [this] { return irq_.status(); },
      [this](std::uint8_t v) { irq_.clear(v); });  // write-1-to-clear
  bus_.map(
      Reg::kIntMask, [this] { return irq_.mask(); },
      [this](std::uint8_t v) { irq_.set_mask(v); });
  // SPI read-out window: reading DATA0 pops the next word into the latch
  // and returns its low byte; DATA1..3 return the remaining bytes of the
  // latched word. An empty FIFO reads as zero (addr 0, delta 0 — a word
  // the front-end never produces back to back, so hosts can detect it).
  bus_.map(Reg::kFifoData0, [this] {
    readout_latch_ = fifo_.empty() ? 0u : fifo_.pop(sched_.now()).raw();
    return static_cast<std::uint8_t>(readout_latch_ & 0xFFu);
  });
  bus_.map(Reg::kFifoData1, [this] {
    return static_cast<std::uint8_t>((readout_latch_ >> 8) & 0xFFu);
  });
  bus_.map(Reg::kFifoData2, [this] {
    return static_cast<std::uint8_t>((readout_latch_ >> 16) & 0xFFu);
  });
  bus_.map(Reg::kFifoData3, [this] {
    return static_cast<std::uint8_t>((readout_latch_ >> 24) & 0xFFu);
  });
}

power::ActivityTotals AerToI2sInterface::activity() const {
  power::ActivityTotals a;
  const auto clk = clkgen_.activity();
  a.window = sched_.now();
  a.osc_awake = clk.awake;
  a.sampling_cycles = clk.sampling_cycles;
  a.events = front_end_.events();
  a.fifo_writes = fifo_.pushes();
  a.fifo_reads = fifo_.pops();
  a.i2s_bits = i2s_.bits_shifted();
  a.spi_bits = spi_slave_.bits_clocked();
  a.wakeups = clk.wakeups;
  return a;
}

double AerToI2sInterface::average_power_w() const {
  return power_.average_power_w(activity());
}

power::PowerBreakdown AerToI2sInterface::power_breakdown() const {
  return power_.breakdown(activity());
}

void AerToI2sInterface::save_state(BlobWriter& w) const {
  channel_.save_state(w);
  clkgen_.save_state(w);
  front_end_.save_state(w);
  fifo_.save_state(w);
  i2s_.save_state(w);
  bus_.save_state(w);
  spi_slave_.save_state(w);
  irq_.save_state(w);
  w.b(spi_readout_);
  w.u32(readout_latch_);
  w.u64(drain_deadlines_.size());
  for (const Time t : drain_deadlines_) w.time(t);
}

void AerToI2sInterface::restore_state(BlobReader& r) {
  channel_.restore_state(r);
  clkgen_.restore_state(r);
  front_end_.restore_state(r);
  fifo_.restore_state(r);
  i2s_.restore_state(r);
  bus_.restore_state(r);
  spi_slave_.restore_state(r);
  irq_.restore_state(r);
  spi_readout_ = r.b();
  readout_latch_ = r.u32();
  drain_deadlines_.clear();
  const auto nd = r.count(8);
  for (std::size_t i = 0; i < nd; ++i) arm_drain_deadline(r.time());
}

}  // namespace aetr::core
