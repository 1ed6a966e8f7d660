// Shared plumbing for the reproduction benches: the evaluation profile
// (sample counts / origin strides, switchable between a quick default and
// the paper's full setting via RANKNET_FULL=1), table printers, and
// construction of the full baseline roster.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/registry.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
#include "ml/svr.hpp"
#include "simulator/season.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ranknet::bench {

/// Evaluation budget. The default reproduces every table/figure in minutes
/// on one core; RANKNET_FULL=1 switches to the paper's setting (100 sample
/// paths, every origin lap).
struct Profile {
  int num_samples = 32;
  int transformer_samples = 12;  // attention rollout is O(T^2) per step
  int origin_stride = 4;
  int taskb_samples = 16;

  static Profile get() {
    Profile p;
    if (const char* full = std::getenv("RANKNET_FULL");
        full != nullptr && full[0] != '\0') {
      p.num_samples = 100;
      p.transformer_samples = 100;
      p.origin_stride = 1;
      p.taskb_samples = 100;
    }
    return p;
  }
};

/// Task-A evaluation on every core: the engine's determinism contract keeps
/// the metrics bit-identical to a one-thread run.
inline core::TaskAConfig task_a_config(const Profile& p, int horizon = 2) {
  core::TaskAConfig cfg;
  cfg.horizon = horizon;
  cfg.num_samples = p.num_samples;
  cfg.origin_stride = p.origin_stride;
  cfg.threads = static_cast<int>(util::ThreadPool::hardware_threads());
  return cfg;
}

/// Named forecaster handle (owns the model).
struct NamedForecaster {
  std::string name;
  std::unique_ptr<core::RaceForecaster> forecaster;
};

/// Train the pointwise ML regression baselines for a fixed horizon.
inline std::vector<NamedForecaster> make_ml_baselines(
    const std::vector<telemetry::RaceLog>& train_races, int horizon) {
  std::vector<NamedForecaster> out;
  core::MlFeatureConfig fcfg;
  const auto ds = core::build_ml_dataset(train_races, horizon, fcfg, 12000);

  auto forest = std::make_shared<ml::RandomForest>();
  forest->fit(ds.x, ds.y);
  out.push_back({"RandomForest",
                 std::make_unique<core::MlRegressorForecaster>(
                     "RandomForest", forest, fcfg, horizon)});

  auto svr = std::make_shared<ml::Svr>();
  svr->fit(ds.x, ds.y);
  out.push_back({"SVM", std::make_unique<core::MlRegressorForecaster>(
                            "SVM", svr, fcfg, horizon)});

  auto gbdt = std::make_shared<ml::Gbdt>();
  gbdt->fit(ds.x, ds.y);
  out.push_back({"XGBoost", std::make_unique<core::MlRegressorForecaster>(
                                "XGBoost", gbdt, fcfg, horizon)});
  return out;
}

inline void print_rule(int width = 118) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_task_a_header(const char* title) {
  std::printf("%s\n", title);
  print_rule();
  std::printf("%-18s | %8s %8s %8s %8s | %8s %8s %8s %8s | %8s %8s %8s %8s\n",
              "Model", "Top1Acc", "MAE", "50-Risk", "90-Risk", "Top1Acc",
              "MAE", "50-Risk", "90-Risk", "Top1Acc", "MAE", "50-Risk",
              "90-Risk");
  std::printf("%-18s | %35s | %35s | %35s\n", "",
              "           All Laps", "          Normal Laps",
              "      PitStop Covered Laps");
  print_rule();
}

inline void print_task_a_row(const std::string& name,
                             const core::TaskAResult& r) {
  std::printf(
      "%-18s | %8.2f %8.2f %8.3f %8.3f | %8.2f %8.2f %8.3f %8.3f | %8.2f "
      "%8.2f %8.3f %8.3f\n",
      name.c_str(), r.all.top1, r.all.mae, r.all.risk50, r.all.risk90,
      r.normal.top1, r.normal.mae, r.normal.risk50, r.normal.risk90,
      r.pit_covered.top1, r.pit_covered.mae, r.pit_covered.risk50,
      r.pit_covered.risk90);
}

}  // namespace ranknet::bench
