#include "runtime/sweep.hpp"

#include <chrono>
#include <mutex>
#include <utility>

#include "runtime/thread_pool.hpp"

namespace aetr::runtime {

double SweepReport::busy_sec() const {
  double sum = 0.0;
  for (const auto& m : metrics) sum += m.wall_sec;
  return sum;
}

SweepError::SweepError(std::size_t index, std::string tag,
                       const std::string& reason)
    : std::runtime_error{"sweep job #" + std::to_string(index) + " (" + tag +
                         ") failed: " + reason},
      index_{index},
      tag_{std::move(tag)} {}

SweepReport run_sweep(const SweepGrid& grid, const JobFn& fn,
                      const SweepOptions& options, ResultSink* sink) {
  ThreadPool pool{options.jobs};
  return run_sweep(grid, fn, pool, options, sink);
}

SweepReport run_sweep(const SweepGrid& grid, const JobFn& fn,
                      ThreadPool& pool, const SweepOptions& options,
                      ResultSink* sink) {
  const std::size_t total = grid.size();
  SweepReport report;
  report.outputs.resize(total);
  report.metrics.resize(total);

  if (sink) sink->begin(options.header);

  const auto sweep_start = std::chrono::steady_clock::now();

  OrderedCollector collector{total, sink, options.progress};
  std::atomic<bool> cancel{false};

  // First failure wins; later ones are suppressed (they are usually the
  // same root cause hit by sibling grid points).
  std::mutex failure_mutex;
  bool failed = false;
  std::size_t failed_index = 0;
  std::string failed_tag;
  std::string failed_reason;

  report.threads = pool.thread_count();
  const std::uint64_t steals_before = pool.steal_count();
  for (std::size_t i = 0; i < total; ++i) {
    pool.submit([&, i] {
      if (cancel.load(std::memory_order_relaxed)) {
        collector.add(i, {});
        return;
      }
      JobContext ctx;
      ctx.point = grid.point(i);
      ctx.index = i;
      ctx.seed = derive_seed(options.seed, i);
      ctx.cancel_ = &cancel;

      JobMetrics metrics;
      metrics.index = i;
      metrics.seed = ctx.seed;
      metrics.tag = ctx.point.tag();

      const auto start = std::chrono::steady_clock::now();
      try {
        JobOutput out = fn(ctx);
        metrics.wall_sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        std::vector<Row> rows = out.rows;
        report.outputs[i] = std::move(out);      // slot i is ours alone
        report.metrics[i] = std::move(metrics);
        collector.add(i, std::move(rows));
      } catch (const std::exception& e) {
        cancel.store(true, std::memory_order_relaxed);
        {
          std::lock_guard lock{failure_mutex};
          if (!failed) {
            failed = true;
            failed_index = i;
            failed_tag = ctx.point.tag();
            failed_reason = e.what();
          }
        }
        collector.add(i, {});
      } catch (...) {
        cancel.store(true, std::memory_order_relaxed);
        {
          std::lock_guard lock{failure_mutex};
          if (!failed) {
            failed = true;
            failed_index = i;
            failed_tag = ctx.point.tag();
            failed_reason = "unknown exception";
          }
        }
        collector.add(i, {});
      }
    });
  }
  pool.wait_idle();
  report.steals = pool.steal_count() - steals_before;

  report.wall_sec = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - sweep_start)
                        .count();

  if (failed) throw SweepError{failed_index, failed_tag, failed_reason};
  if (sink) sink->end();
  return report;
}

}  // namespace aetr::runtime
