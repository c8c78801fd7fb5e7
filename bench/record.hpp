// The part of a benchmark record a bench binary reports itself: one JSON
// object {"metrics": {name: number|null}, "gates": {name: bool}} on stdout,
// which tools/bench_report.py wraps into BENCH_<name>.json (see
// docs/RUNTIME.md, "Benchmark records"). Series (per rate, per fleet size)
// are flattened into the metric names.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace aetr::bench {

class Record {
 public:
  void metric(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
  }
  void gate(std::string name, bool ok) {
    gates_.emplace_back(std::move(name), ok);
  }

  /// Prints the record. Returns the exit code: 1 if any gate failed.
  [[nodiscard]] int print() const {
    std::printf("{\"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value] = metrics_[i];
      std::printf("%s\n  \"%s\": ", i == 0 ? "" : ",", name.c_str());
      if (std::isfinite(value)) {
        std::printf("%.10g", value);
      } else {
        std::printf("null");
      }
    }
    std::printf("},\n \"gates\": {");
    bool ok = true;
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const auto& [name, pass] = gates_[i];
      std::printf("%s\n  \"%s\": %s", i == 0 ? "" : ",", name.c_str(),
                  pass ? "true" : "false");
      ok = ok && pass;
    }
    std::printf("}}\n");
    return ok ? 0 : 1;
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, bool>> gates_;
};

}  // namespace aetr::bench
