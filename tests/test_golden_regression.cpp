// Golden-trajectory regression test.
//
// A fixed-seed simulated race is forecast by RankNet (oracle status and
// PitModel-sampled status), the PitModel-source Transformer, and two
// baselines (CurRank, ARIMA); the per-car median trajectories are
// compared against CSVs committed under tests/golden/. Any change to the
// simulator, feature pipeline, model initialization, rng stream layout, or
// sampling path shows up here as a concrete numeric diff — which is the
// point: refactors like the parallel engine must NOT move these numbers.
//
// Regenerate (after an intentional behavior change) with:
//   RANKNET_UPDATE_GOLDEN=1 ./tests/test_golden_regression
// and commit the rewritten CSVs alongside the change that explains them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/ranknet.hpp"
#include "simulator/season.hpp"
#include "tensor/simd_kernels.hpp"

namespace {

using namespace ranknet;

#ifndef RANKNET_GOLDEN_DIR
#error "RANKNET_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

constexpr std::uint64_t kSeed = 2468;
constexpr int kHorizon = 5;
constexpr int kNumSamples = 32;
const std::vector<int> kOrigins{40, 90, 140};
// PitModel-source goldens add lap 3, where the encoder-tail window clamps
// (origin - 2 < shift) and the Transformer context starts at lap 1.
const std::vector<int> kPitModelOrigins{3, 40, 90, 140};

// rows keyed (origin, car_id) -> median predicted rank per horizon lap.
using Trajectories = std::map<std::pair<int, int>, std::vector<double>>;

Trajectories median_trajectories(core::RaceForecaster& forecaster,
                                 const telemetry::RaceLog& race,
                                 const std::vector<int>& origins) {
  Trajectories out;
  util::Rng rng(kSeed);
  for (const int origin : origins) {
    const auto ranks = core::sort_to_ranks(
        forecaster.forecast(race, origin, kHorizon, kNumSamples, rng));
    for (const auto& [car_id, m] : ranks) {
      std::vector<double> med(m.cols());
      for (std::size_t h = 0; h < m.cols(); ++h) {
        med[h] = core::sample_quantile(m, h, 0.5);
      }
      out.emplace(std::make_pair(origin, car_id), std::move(med));
    }
  }
  return out;
}

std::string golden_path(const std::string& model) {
  return std::string(RANKNET_GOLDEN_DIR) + "/" + model + "_median.csv";
}

void write_golden(const std::string& model, const Trajectories& t) {
  std::ofstream out(golden_path(model));
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(model);
  out << "origin,car_id";
  for (int h = 1; h <= kHorizon; ++h) out << ",h" << h;
  out << "\n";
  char buf[64];
  for (const auto& [key, med] : t) {
    out << key.first << "," << key.second;
    for (const double v : med) {
      // %.17g round-trips doubles exactly; the comparison tolerance below
      // exists only to absorb decimal parsing, not computation drift.
      std::snprintf(buf, sizeof(buf), ",%.17g", v);
      out << buf;
    }
    out << "\n";
  }
}

Trajectories read_golden(const std::string& model) {
  Trajectories t;
  std::ifstream in(golden_path(model));
  if (!in.good()) return t;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string cell;
    std::getline(row, cell, ',');
    const int origin = std::stoi(cell);
    std::getline(row, cell, ',');
    const int car_id = std::stoi(cell);
    std::vector<double> med;
    while (std::getline(row, cell, ',')) med.push_back(std::stod(cell));
    t.emplace(std::make_pair(origin, car_id), std::move(med));
  }
  return t;
}

void check_against_golden(const std::string& model,
                          core::RaceForecaster& forecaster,
                          const telemetry::RaceLog& race,
                          const std::vector<int>& origins = kOrigins) {
  const auto actual = median_trajectories(forecaster, race, origins);
  ASSERT_FALSE(actual.empty());

  if (std::getenv("RANKNET_UPDATE_GOLDEN") != nullptr) {
    write_golden(model, actual);
    GTEST_SKIP() << "rewrote " << golden_path(model);
  }

  const auto expected = read_golden(model);
  ASSERT_FALSE(expected.empty())
      << golden_path(model)
      << " missing — generate with RANKNET_UPDATE_GOLDEN=1";
  ASSERT_EQ(actual.size(), expected.size()) << model << " row set changed";
  for (const auto& [key, med] : actual) {
    const auto it = expected.find(key);
    ASSERT_NE(it, expected.end())
        << model << " new row origin=" << key.first << " car=" << key.second;
    ASSERT_EQ(med.size(), it->second.size());
    for (std::size_t h = 0; h < med.size(); ++h) {
      EXPECT_NEAR(med[h], it->second[h], 1e-9)
          << model << " origin=" << key.first << " car=" << key.second
          << " h=" << h + 1;
    }
  }
}

class GoldenRegression : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    race_ = new telemetry::RaceLog(
        sim::simulate_race({"Indy500", 2019, 200, sim::Usage::kTest}));
    vocab_ = new features::CarVocab({*race_});
  }
  static void TearDownTestSuite() {
    delete vocab_;
    delete race_;
  }
  // Goldens are pinned to the scalar reference variant (see DESIGN.md,
  // "Golden-file policy"): the scalar kernels are byte-frozen, so these
  // CSVs stay valid no matter which SIMD variant the host CPU or a
  // RANKNET_KERNEL override would otherwise select. Regenerate with the
  // same pin in place.
  void SetUp() override {
    saved_ = tensor::kernels::active_variant();
    ASSERT_TRUE(
        tensor::kernels::set_variant(tensor::kernels::Variant::kScalar).ok());
  }
  void TearDown() override {
    ASSERT_TRUE(tensor::kernels::set_variant(saved_).ok());
  }
  tensor::kernels::Variant saved_ = tensor::kernels::Variant::kScalar;
  static telemetry::RaceLog* race_;
  static features::CarVocab* vocab_;
};
telemetry::RaceLog* GoldenRegression::race_ = nullptr;
features::CarVocab* GoldenRegression::vocab_ = nullptr;

TEST_F(GoldenRegression, RankNetMedianTrajectories) {
  core::SeqModelConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.hidden = 8;
  cfg.embed_dim = 2;
  cfg.vocab = vocab_->size();
  auto model = std::make_shared<core::LstmSeqModel>(cfg);
  model->set_scaler(features::StandardScaler(17.0, 9.0));
  core::RankNetForecaster f(model, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "RankNet");
  check_against_golden("ranknet", f, *race_);
}

// The PitModel source draws a coupled status realization per sample; an
// untrained MLP with a stint-scale target scaler pits often enough inside
// h + shift laps that both stint branches of the sampler are exercised.
std::shared_ptr<core::PitModel> golden_pit_model() {
  auto pit = std::make_shared<core::PitModel>();
  pit->set_scaler(features::StandardScaler(15.0, 6.0));
  return pit;
}

TEST_F(GoldenRegression, RankNetPitModelMedianTrajectories) {
  core::SeqModelConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.hidden = 8;
  cfg.embed_dim = 2;
  cfg.vocab = vocab_->size();
  auto model = std::make_shared<core::LstmSeqModel>(cfg);
  model->set_scaler(features::StandardScaler(17.0, 9.0));
  core::RankNetForecaster f(model, golden_pit_model(), *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kPitModel, "RankNet-MLP");
  check_against_golden("ranknet_pitmodel", f, *race_, kPitModelOrigins);
}

TEST_F(GoldenRegression, TransformerPitModelMedianTrajectories) {
  core::TransformerConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.model_dim = 16;
  cfg.heads = 4;
  cfg.blocks = 1;
  cfg.embed_dim = 2;
  cfg.vocab = vocab_->size();
  cfg.infer_context = 12;
  auto model = std::make_shared<core::TransformerSeqModel>(cfg);
  model->set_scaler(features::StandardScaler(17.0, 9.0));
  core::TransformerForecaster f(model, golden_pit_model(), *vocab_,
                                features::CovariateConfig{},
                                core::StatusSource::kPitModel,
                                "Transformer-MLP");
  check_against_golden("transformer_pitmodel", f, *race_, kPitModelOrigins);
}

TEST_F(GoldenRegression, CurRankMedianTrajectories) {
  core::CurRankForecaster f;
  check_against_golden("currank", f, *race_);
}

TEST_F(GoldenRegression, ArimaMedianTrajectories) {
  core::ArimaForecaster f;
  check_against_golden("arima", f, *race_);
}

}  // namespace
