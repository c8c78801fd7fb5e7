// run_sweep(): map a job function over a SweepGrid on the work-stealing
// pool, deterministically.
//
// Job model. One job = one grid point + one derived seed + one tag.
// The job function receives a JobContext and returns a JobOutput:
//   * `values`  — numeric results for figure-level post-processing
//                 (assembling multi-series tables, estimating E_spike, ...)
//   * `rows`    — zero or more pre-rendered rows streamed to the sink in
//                 job-index order while the sweep is still running.
//
// Determinism contract. The output of a sweep is a pure function of
// (grid, root seed, job function):
//   * every job's RNG seed is derive_seed(root_seed, index) — never thread
//     identity, never execution order;
//   * jobs must not share mutable state (the runner hands each job its own
//     context and collects outputs by index);
//   * the collector re-orders completions, so sinks and the returned report
//     see index order regardless of --jobs.
// Under that contract `--jobs 1` and `--jobs N` produce bit-identical CSVs.
// Wall-clock metrics (JobMetrics::wall_sec, SweepReport::wall_sec) are the
// one deliberate exception — they measure the run, not the result, and are
// reported separately from the data rows.
//
// Failure. A throwing job cancels all not-yet-started jobs and run_sweep
// throws SweepError naming the job's index and tag — a broken sweep aborts
// loudly instead of hanging the pool or silently dropping grid points.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/seed.hpp"
#include "runtime/sink.hpp"
#include "runtime/sweep_grid.hpp"

namespace aetr::runtime {

class ThreadPool;

/// Everything a job may depend on. Jobs draw randomness from `seed` only.
struct JobContext {
  GridPoint point;
  std::size_t index{0};
  std::uint64_t seed{0};
  /// True once another job has failed; long-running jobs may poll this and
  /// return early (their output is discarded anyway).
  [[nodiscard]] bool cancelled() const {
    return cancel_ && cancel_->load(std::memory_order_relaxed);
  }
  const std::atomic<bool>* cancel_{nullptr};
};

struct JobOutput {
  std::vector<double> values;
  std::vector<Row> rows;
};

using JobFn = std::function<JobOutput(const JobContext&)>;

/// Per-job measurement (index order in the report).
struct JobMetrics {
  std::size_t index{0};
  std::uint64_t seed{0};
  std::string tag;
  double wall_sec{0.0};
};

struct SweepOptions {
  /// Worker threads; 0 = hardware_concurrency.
  std::size_t jobs = 0;
  /// Root seed for derive_seed().
  std::uint64_t seed = 1;
  /// Header handed to the sink's begin() before any rows.
  Row header;
  /// Called after each job lands: (done, total). Runs under the collector
  /// lock in completion order — keep it cheap (progress meters, logging).
  std::function<void(std::size_t, std::size_t)> progress;
};

struct SweepReport {
  std::vector<JobOutput> outputs;   ///< one per grid point, index order
  std::vector<JobMetrics> metrics;  ///< one per grid point, index order
  double wall_sec{0.0};             ///< whole-sweep wall clock
  std::size_t threads{0};
  std::uint64_t steals{0};
  [[nodiscard]] double jobs_per_sec() const {
    return wall_sec > 0.0 ? static_cast<double>(metrics.size()) / wall_sec
                          : 0.0;
  }
  /// Sum of per-job wall clocks — with wall_sec, the realised parallelism.
  [[nodiscard]] double busy_sec() const;
};

/// Thrown when any job throws; carries which grid point failed.
class SweepError : public std::runtime_error {
 public:
  SweepError(std::size_t index, std::string tag, const std::string& reason);
  [[nodiscard]] std::size_t job_index() const { return index_; }
  [[nodiscard]] const std::string& job_tag() const { return tag_; }

 private:
  std::size_t index_;
  std::string tag_;
};

/// Run `fn` over every grid point. `sink` (optional) receives the header
/// and all streamed rows in index order.
SweepReport run_sweep(const SweepGrid& grid, const JobFn& fn,
                      const SweepOptions& options = {},
                      ResultSink* sink = nullptr);

/// The same on a caller's pool (options.jobs is ignored), so a caller with
/// more parallel work after the sweep starts its threads once.
/// SweepReport::steals counts this sweep's steals only.
SweepReport run_sweep(const SweepGrid& grid, const JobFn& fn,
                      ThreadPool& pool, const SweepOptions& options = {},
                      ResultSink* sink = nullptr);

}  // namespace aetr::runtime
