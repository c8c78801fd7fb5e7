// sweep-fig8: the batch reproduction path. sweeps::run_fig8 on the full
// 4 x 13 grid (runtime pool -> run_scenario on the idle-skip fast path ->
// components), cycling over a fixed list of seeds drawn from --seed. No net
// layer, no streaming, no snapshots.
#include <algorithm>
#include <filesystem>
#include <map>

#include "sweeps/figures.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace aetr;

constexpr std::size_t kSeeds = 3;

sweeps::FigureOptions fig8_options(const RunConfig& cfg, std::uint64_t seed,
                                   const std::string& out_dir) {
  sweeps::FigureOptions opt;
  opt.jobs = cfg.jobs;
  opt.seed = seed;
  opt.out_dir = out_dir;
  opt.quick = cfg.smoke;
  return opt;
}

class Fig8Workload final : public Workload {
 public:
  explicit Fig8Workload(const RunConfig& cfg) : cfg_{cfg} {}

  void setup() override {
    seeds_.clear();
    for (std::size_t k = 0; k < kSeeds; ++k) {
      seeds_.push_back(sub_seed(cfg_.seed, 100 + k));
      fs::create_directories(out_dir(k));
    }
    // Pool construction and first touch of the sweep path: the reduced
    // grid once.
    auto opt = fig8_options(cfg_, seeds_.front(), out_dir(0));
    opt.quick = true;
    (void)sweeps::run_fig8(opt);
  }

  Round round(Tracer& tracer) override {
    const std::size_t k = runs_.size() % kSeeds;
    const auto t0 = Clock::now();
    const auto span = tracer.begin("sweeps.run_fig8");
    auto res = sweeps::run_fig8(fig8_options(cfg_, seeds_[k], out_dir(k)));
    tracer.end(span);
    Round r;
    r.wall_s = seconds_since(t0);
    r.items = static_cast<double>(res.report.metrics.size());
    r.latency_ms.push_back(r.wall_s * 1e3);
    runs_.push_back({k, res.ok(), file_digest(res.csv_path), r.items});
    reports_.push_back(std::move(res.report));
    return r;
  }

  void verify(Checks& checks) override {
    // The reference DES pins each seed's series; the fast path must match.
    std::map<std::size_t, std::uint64_t> pinned;
    for (const Run& run : runs_) {
      if (pinned.count(run.seed_index) == 0) {
        const std::string dir = out_dir(run.seed_index) + "/ref";
        fs::create_directories(dir);
        auto opt = fig8_options(cfg_, seeds_[run.seed_index], dir);
        opt.fast_forward = false;
        const auto ref = sweeps::run_fig8(opt);
        checks.op(ref.ok(), "fig8 reference sweep failed its checks");
        pinned[run.seed_index] = file_digest(ref.csv_path);
      }
      const bool ok = run.ok && run.digest == pinned[run.seed_index];
      checks.op(ok, "fig8 sweep: checks failed or series differs from the "
                    "reference DES",
                static_cast<std::uint64_t>(run.jobs));
    }
  }

  /// One sample per sweep, about three hundred in a run. Per-job times
  /// are not used: the grid's few heavy points sit far apart, so a high
  /// job percentile jumps between them from run to run. p75, because the
  /// host's slow spells reach past a tenth of the sweeps of a run.
  [[nodiscard]] double tail_quantile() const override { return 0.75; }

  LayerInputs layer_inputs() override {
    LayerInputs in = default_layer_inputs(cfg_);
    in.sweeps = reports_;
    return in;
  }

 private:
  struct Run {
    std::size_t seed_index;
    bool ok;
    std::uint64_t digest;
    double jobs;
  };

  [[nodiscard]] std::string out_dir(std::size_t k) const {
    return cfg_.work_dir + "/fig8-" + std::to_string(k);
  }

  RunConfig cfg_;
  std::vector<std::uint64_t> seeds_;
  std::vector<Run> runs_;
  std::vector<runtime::SweepReport> reports_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_fig8(const RunConfig& cfg) {
  return std::make_unique<Fig8Workload>(cfg);
}

void probe_runtime(const RunConfig& cfg,
                   std::vector<runtime::SweepReport> sweeps, Tracer& tracer,
                   Metrics& out) {
  if (sweeps.empty()) {
    const std::string dir = cfg.work_dir + "/probe-fig8";
    fs::create_directories(dir);
    for (std::size_t k = 0; k < kSeeds; ++k) {
      const auto sp = tracer.scope("probe.run_fig8");
      sweeps.push_back(
          sweeps::run_fig8(fig8_options(cfg, sub_seed(cfg.seed, 100 + k), dir))
              .report);
    }
  }
  double busy = 0.0;
  double capacity = 0.0;
  double steals = 0.0;
  std::vector<double> job_ms;
  std::vector<double> straggler_ms;  // slowest job of each sweep
  for (const auto& rep : sweeps) {
    busy += rep.busy_sec();
    capacity += rep.wall_sec * static_cast<double>(rep.threads);
    steals += static_cast<double>(rep.steals);
    double slowest = 0.0;
    for (const auto& m : rep.metrics) {
      job_ms.push_back(m.wall_sec * 1e3);
      slowest = std::max(slowest, m.wall_sec * 1e3);
    }
    straggler_ms.push_back(slowest);
  }
  const double n = static_cast<double>(sweeps.size());
  out["runtime.pool.utilization"] = {capacity > 0.0 ? busy / capacity : 0.0, "ratio"};
  out["runtime.pool.steals"] = {steals / n, "count"};
  out["runtime.job_ms_p50"] = {quantile(job_ms, 0.5), "ms"};
  out["runtime.job_ms_max"] = {median(straggler_ms), "ms"};
}

}  // namespace perfbench
