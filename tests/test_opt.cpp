// aetr::opt — deterministic multi-objective design-space optimizer.
//
// The tests mirror the subsystem's three layers: the SearchSpace (typed
// axes, text round-trip, eager key validation), the ParetoFront (dominance
// and exact hypervolume, including the degenerate shapes the issue calls
// out), and optimize() end-to-end (byte-identical artifacts across --jobs,
// interrupt + resume equivalence, and the headline claim that the quick
// halving search strictly dominates the paper-default configuration).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "opt/evaluator.hpp"
#include "opt/optimizer.hpp"
#include "opt/pareto.hpp"
#include "opt/search_space.hpp"

using namespace aetr;
using opt::ParetoFront;
using opt::ParetoPoint;
using opt::SearchSpace;

// --- search space ----------------------------------------------------------

TEST(SearchSpace, DumpParseRoundTrip) {
  SearchSpace space;
  space.linear("power.static_uw", 1.0, 5.0, 4)
      .log("drain_timeout_us", 100.0, 1600.0, 5)
      .log_int("fifo.batch_threshold", 64, 2048, 6)
      .integer("clock.n_div", 4, 10)
      .choice("clock.theta_div", {16, 32, 64});
  const std::string text = space.dump();
  std::istringstream is{text};
  const auto parsed = SearchSpace::parse(is);
  EXPECT_EQ(parsed.dump(), text);
  ASSERT_EQ(parsed.size(), space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(parsed.axes()[i].key, space.axes()[i].key);
    EXPECT_EQ(parsed.axes()[i].grid_values(), space.axes()[i].grid_values());
  }
}

TEST(SearchSpace, ParseAcceptsCommentsAndBlankLines) {
  std::istringstream is{
      "# tuning axes\n"
      "\n"
      "clock.n_div = int(4, 10)\n"
      "clock.theta_div = choice(16, 32)  # trailing comment\n"};
  const auto space = SearchSpace::parse(is);
  ASSERT_EQ(space.size(), 2u);
  EXPECT_EQ(space.axes()[0].grid_values().size(), 7u);
  EXPECT_EQ(space.axes()[1].grid_values(), (std::vector<double>{16, 32}));
}

TEST(SearchSpace, UnknownKeyFailsEagerlyWithSuggestion) {
  SearchSpace space;
  try {
    space.integer("clock.n_dib", 4, 10);
    FAIL() << "expected unknown-key rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scenario key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'clock.n_div'"), std::string::npos)
        << msg;
  }
}

TEST(SearchSpace, TelemetryAxesRejected) {
  // Observers must not join the search: a telemetry knob changes what is
  // recorded, not how the interface behaves.
  SearchSpace space;
  EXPECT_THROW(space.choice("telemetry.trace", {0, 1}), std::runtime_error);
  std::istringstream is{"telemetry.trace = choice(0, 1)\n"};
  EXPECT_THROW((void)SearchSpace::parse(is), std::runtime_error);
}

TEST(SearchSpace, BuilderRejectsDegenerateDomains) {
  SearchSpace space;
  EXPECT_THROW(space.linear("clock.n_div", 10, 4, 3), std::runtime_error);
  EXPECT_THROW(space.log("power.static_uw", 0.0, 1.0, 3),
               std::runtime_error);
  EXPECT_THROW(space.linear("clock.n_div", 4, 10, 0), std::runtime_error);
  EXPECT_THROW(space.choice("clock.n_div", {}), std::runtime_error);
  // An endpoint outside the key's declared domain fails at construction.
  EXPECT_THROW(space.integer("clock.n_div", 4, 40), std::runtime_error);
  space.integer("clock.n_div", 4, 10);
  EXPECT_THROW(space.integer("clock.n_div", 4, 10), std::runtime_error);
}

TEST(SearchSpace, LogIntGridIsDeduplicatedIntegers) {
  SearchSpace space;
  space.log_int("fifo.batch_threshold", 64, 2048, 6);
  const auto grid = space.axes()[0].grid_values();
  ASSERT_GE(grid.size(), 2u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i], std::round(grid[i]));
    if (i) {
      EXPECT_LT(grid[i - 1], grid[i]);
    }
  }
  EXPECT_EQ(grid.front(), 64.0);
  EXPECT_EQ(grid.back(), 2048.0);
}

TEST(SearchSpace, FactorialDecodeIsRowMajor) {
  SearchSpace space;
  space.choice("clock.theta_div", {16, 32, 64}).integer("clock.n_div", 4, 5);
  ASSERT_EQ(space.factorial_size(), 6u);
  // First axis slowest: index runs n_div fastest.
  EXPECT_EQ(space.factorial_point(0), (std::vector<double>{16, 4}));
  EXPECT_EQ(space.factorial_point(1), (std::vector<double>{16, 5}));
  EXPECT_EQ(space.factorial_point(2), (std::vector<double>{32, 4}));
  EXPECT_EQ(space.factorial_point(5), (std::vector<double>{64, 5}));
}

TEST(SearchSpace, SamplingIsSeedPureAndInDomain) {
  const auto space = SearchSpace::default_space();
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const auto a = space.sample(seed);
    const auto b = space.sample(seed);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), space.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const auto& axis = space.axes()[i];
      if (axis.kind == opt::AxisKind::kChoice) {
        const auto& cs = axis.choices;
        EXPECT_NE(std::find(cs.begin(), cs.end(), a[i]), cs.end());
      } else {
        EXPECT_GE(a[i], axis.lo);
        EXPECT_LE(a[i], axis.hi);
      }
    }
  }
  EXPECT_NE(space.sample(1), space.sample(2));
}

TEST(SearchSpace, ApplyReachesTheScenario) {
  SearchSpace space;
  space.integer("clock.n_div", 4, 10)
      .log_int("fifo.batch_threshold", 64, 2048, 6);
  core::ScenarioConfig sc;
  space.apply(sc, {5, 256});
  EXPECT_EQ(sc.interface.clock.n_div, 5u);
  EXPECT_EQ(sc.interface.fifo.batch_threshold, 256u);
  EXPECT_THROW(space.apply(sc, {5}), std::runtime_error);
}

// --- pareto front ----------------------------------------------------------

TEST(Pareto, DominanceIsStrict) {
  EXPECT_TRUE(opt::dominates({1, 2}, {2, 2}));
  EXPECT_TRUE(opt::dominates({1, 1}, {2, 2}));
  EXPECT_FALSE(opt::dominates({1, 2}, {1, 2}));  // equal: not strict
  EXPECT_FALSE(opt::dominates({1, 3}, {2, 2}));  // trade-off: incomparable
  EXPECT_FALSE(opt::dominates({2, 2}, {1, 2}));
  EXPECT_THROW((void)opt::dominates({1}, {1, 2}), std::invalid_argument);
}

TEST(Pareto, AddKeepsNonDominatedSetSorted) {
  ParetoFront front;
  EXPECT_TRUE(front.add({0, {}, {3, 1}}));
  EXPECT_TRUE(front.add({1, {}, {1, 3}}));
  EXPECT_FALSE(front.add({2, {}, {3, 3}}));  // dominated by both
  EXPECT_TRUE(front.add({3, {}, {2, 2}}));   // incomparable: joins
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front.points()[0].objectives, (std::vector<double>{1, 3}));
  EXPECT_EQ(front.points()[1].objectives, (std::vector<double>{2, 2}));
  EXPECT_EQ(front.points()[2].objectives, (std::vector<double>{3, 1}));
  // A new dominator evicts everything it beats.
  EXPECT_TRUE(front.add({4, {}, {1, 1}}));
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front.points()[0].id, 4u);
}

TEST(Pareto, DuplicateObjectiveVectorsKeepFirstId) {
  ParetoFront front;
  EXPECT_TRUE(front.add({7, {}, {1, 2}}));
  EXPECT_FALSE(front.add({3, {}, {1, 2}}));  // same trade-off: dropped
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front.points()[0].id, 7u);
}

TEST(Pareto, SingleObjectiveFrontIsTheMinimum) {
  ParetoFront front;
  EXPECT_TRUE(front.add({0, {}, {5}}));
  EXPECT_TRUE(front.add({1, {}, {2}}));
  EXPECT_FALSE(front.add({2, {}, {3}}));
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front.points()[0].objectives, (std::vector<double>{2}));
  EXPECT_DOUBLE_EQ(front.hypervolume({10}), 8.0);
}

TEST(Pareto, ContainsDominatorOf) {
  ParetoFront front;
  front.add({0, {}, {1, 3}});
  front.add({1, {}, {3, 1}});
  EXPECT_TRUE(front.contains_dominator_of({2, 4}));
  EXPECT_FALSE(front.contains_dominator_of({1, 3}));  // equal, not strict
  EXPECT_FALSE(front.contains_dominator_of({2, 2}));
  EXPECT_FALSE(front.contains_dominator_of({0, 0}));
}

TEST(Pareto, HypervolumeKnownValues2D) {
  ParetoFront front;
  EXPECT_DOUBLE_EQ(front.hypervolume({3, 3}), 0.0);  // empty front
  front.add({0, {}, {1, 2}});
  front.add({1, {}, {2, 1}});
  // Boxes [1,3]x[2,3] and [2,3]x[1,3]: 2 + 2 - 1 overlap = 3.
  EXPECT_DOUBLE_EQ(front.hypervolume({3, 3}), 3.0);
  // A member on the reference contributes nothing.
  ParetoFront edge;
  edge.add({0, {}, {3, 1}});
  EXPECT_DOUBLE_EQ(edge.hypervolume({3, 3}), 0.0);
}

TEST(Pareto, HypervolumeKnownValues3D) {
  ParetoFront front;
  front.add({0, {}, {0, 1, 1}});
  front.add({1, {}, {1, 0, 0}});
  // [0,2]x[1,2]x[1,2] = 2 and [1,2]x[0,2]x[0,2] = 4, overlap
  // [1,2]x[1,2]x[1,2] = 1: union = 5.
  EXPECT_DOUBLE_EQ(front.hypervolume({2, 2, 2}), 5.0);
}

// --- evaluator -------------------------------------------------------------

TEST(Evaluator, ParseObjectives) {
  using opt::Objective;
  const auto v = opt::parse_objectives("energy,error,loss,latency");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], Objective::kEnergyPerEvent);
  EXPECT_EQ(v[3], Objective::kLatencyP99);
  EXPECT_EQ(opt::parse_objectives("error").size(), 1u);
  EXPECT_THROW((void)opt::parse_objectives(""), std::runtime_error);
  EXPECT_THROW((void)opt::parse_objectives("energy,energy"),
               std::runtime_error);
  EXPECT_THROW((void)opt::parse_objectives("joules"), std::runtime_error);
}

TEST(Evaluator, PairedEvaluationIsSeedPure) {
  const core::ScenarioConfig sc;
  opt::Workload wl;
  wl.n_events = 300;
  const std::vector<opt::Objective> objs{opt::Objective::kEnergyPerEvent,
                                         opt::Objective::kErrorRms,
                                         opt::Objective::kLoss,
                                         opt::Objective::kLatencyP99};
  const auto a = opt::evaluate(sc, wl, objs, 99);
  const auto b = opt::evaluate(sc, wl, objs, 99);
  EXPECT_EQ(a.objectives, b.objectives);
  EXPECT_EQ(a.events_in, b.events_in);
  EXPECT_EQ(a.words_out, b.words_out);
  ASSERT_EQ(a.objectives.size(), 4u);
  EXPECT_GT(a.energy_per_event_j, 0.0);
  EXPECT_GT(a.delivered, 0.0);
  EXPECT_LE(a.delivered, 1.0);
  // A different stream seed changes the (Poisson) workload.
  const auto c = opt::evaluate(sc, wl, objs, 100);
  EXPECT_NE(a.objectives, c.objectives);
}

// --- optimizer end-to-end --------------------------------------------------

namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream is{p, std::ios::binary};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

opt::OptOptions quick_options(const std::filesystem::path& dir) {
  opt::OptOptions options;
  options.strategy = opt::Strategy::kHalving;
  options.budget = 8;
  options.workload.n_events = 800;
  options.out_dir = dir.string();
  return options;
}

const char* const kArtifacts[] = {
    "aetr_opt_trials.csv", "aetr_opt_pareto.csv", "aetr_opt_pareto.svg",
    "aetr_opt_summary.json", "aetr_opt_checkpoint.csv"};

}  // namespace

TEST(Optimizer, ArtifactsByteIdenticalAcrossJobs) {
  const auto base_dir =
      std::filesystem::temp_directory_path() / "aetr_opt_jobs";
  std::filesystem::remove_all(base_dir);
  const auto space = SearchSpace::default_space();
  const core::ScenarioConfig base;
  std::vector<opt::OptResult> results;
  for (std::size_t jobs : {1u, 4u}) {
    const auto dir = base_dir / ("j" + std::to_string(jobs));
    std::filesystem::create_directories(dir);
    auto options = quick_options(dir);
    options.jobs = jobs;
    results.push_back(opt::optimize(space, base, options));
  }
  ASSERT_EQ(results[0].trials.size(), results[1].trials.size());
  for (std::size_t i = 0; i < results[0].trials.size(); ++i) {
    EXPECT_EQ(results[0].trials[i].eval.objectives,
              results[1].trials[i].eval.objectives);
  }
  for (const char* name : kArtifacts) {
    EXPECT_EQ(slurp(base_dir / "j1" / name), slurp(base_dir / "j4" / name))
        << name;
  }
  std::filesystem::remove_all(base_dir);
}

TEST(Optimizer, InterruptThenResumeMatchesUninterrupted) {
  const auto base_dir =
      std::filesystem::temp_directory_path() / "aetr_opt_resume";
  std::filesystem::remove_all(base_dir);
  std::filesystem::create_directories(base_dir / "straight");
  std::filesystem::create_directories(base_dir / "resumed");
  const auto space = SearchSpace::default_space();
  const core::ScenarioConfig base;

  auto straight = quick_options(base_dir / "straight");
  (void)opt::optimize(space, base, straight);

  auto interrupted = quick_options(base_dir / "resumed");
  interrupted.interrupt_after = 5;
  EXPECT_THROW((void)opt::optimize(space, base, interrupted),
               opt::OptInterrupted);

  auto resumed = quick_options(base_dir / "resumed");
  resumed.resume = true;
  const auto result = opt::optimize(space, base, resumed);
  EXPECT_LT(result.evaluations_run, result.trials.size());

  for (const char* name : kArtifacts) {
    EXPECT_EQ(slurp(base_dir / "straight" / name),
              slurp(base_dir / "resumed" / name))
        << name;
  }
  std::filesystem::remove_all(base_dir);
}

TEST(Optimizer, ResumeOfCompletedRunReEvaluatesNothing) {
  const auto dir = std::filesystem::temp_directory_path() / "aetr_opt_done";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto space = SearchSpace::default_space();
  const core::ScenarioConfig base;
  const auto first = opt::optimize(space, base, quick_options(dir));
  EXPECT_GT(first.evaluations_run, 0u);
  auto again = quick_options(dir);
  again.resume = true;
  const auto second = opt::optimize(space, base, again);
  EXPECT_EQ(second.evaluations_run, 0u);
  EXPECT_EQ(second.hypervolume, first.hypervolume);
  std::filesystem::remove_all(dir);
}

TEST(Optimizer, QuickHalvingStrictlyDominatesPaperDefault) {
  // The acceptance claim: on the fig6 active-region workload the quick
  // search finds a configuration strictly better than the paper default on
  // both (energy per event, timestamp RMS error).
  const auto dir = std::filesystem::temp_directory_path() / "aetr_opt_dom";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto options = quick_options(dir);
  options.budget = 16;
  options.workload.n_events = 2000;
  const auto result =
      opt::optimize(SearchSpace::default_space(), core::ScenarioConfig{},
                    options);
  EXPECT_TRUE(result.dominated_baseline);
  EXPECT_TRUE(result.front.contains_dominator_of(
      result.baseline.objectives));
  EXPECT_GT(result.hypervolume, 0.0);
  ASSERT_FALSE(result.front.empty());
  EXPECT_LT(result.front.points().front().objectives[0],
            result.baseline.objectives[0]);
  std::filesystem::remove_all(dir);
}

TEST(Optimizer, FactorialCoversTheWholeGrid) {
  const auto dir = std::filesystem::temp_directory_path() / "aetr_opt_fact";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SearchSpace space;
  space.choice("clock.theta_div", {32, 64}).integer("clock.n_div", 6, 7);
  auto options = quick_options(dir);
  options.strategy = opt::Strategy::kFactorial;
  options.workload.n_events = 300;
  const auto result =
      opt::optimize(space, core::ScenarioConfig{}, options);
  // Every grid point scored once (the baseline is reported separately).
  EXPECT_EQ(result.trials.size(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(Optimizer, StrategyNamesRoundTrip) {
  EXPECT_EQ(opt::parse_strategy("halving"), opt::Strategy::kHalving);
  EXPECT_EQ(opt::parse_strategy("random"), opt::Strategy::kRandom);
  EXPECT_EQ(opt::parse_strategy("factorial"), opt::Strategy::kFactorial);
  EXPECT_THROW((void)opt::parse_strategy("bayes"), std::runtime_error);
}
