// Forecaster-level tests of RankNetForecaster / TransformerForecaster using
// tiny untrained models (fast): shape contracts, determinism for a fixed
// seed, cache behavior, and status-source differences; plus the windowed
// PitModel status sampler checked bit for bit against a full-prefix
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "core/ranknet.hpp"
#include "core/status_forecast.hpp"
#include "simulator/season.hpp"
#include "tensor/workspace.hpp"

namespace {

using namespace ranknet;

class ForecasterContract : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    race_ = new telemetry::RaceLog(
        sim::simulate_race({"Indy500", 2019, 200, sim::Usage::kTest}));
    vocab_ = new features::CarVocab({*race_});

    core::SeqModelConfig cfg;
    cfg.cov_dim = features::CovariateConfig{}.dim();
    cfg.hidden = 8;
    cfg.embed_dim = 2;
    cfg.vocab = vocab_->size();
    model_ = std::make_shared<core::LstmSeqModel>(cfg);
    model_->set_scaler(features::StandardScaler(17.0, 9.0));

    pit_ = std::make_shared<core::PitModel>();
    pit_->set_scaler(features::StandardScaler(15.0, 6.0));
  }
  static void TearDownTestSuite() {
    model_.reset();
    pit_.reset();
    delete vocab_;
    delete race_;
  }

  static telemetry::RaceLog* race_;
  static features::CarVocab* vocab_;
  static std::shared_ptr<core::LstmSeqModel> model_;
  static std::shared_ptr<core::PitModel> pit_;
};
telemetry::RaceLog* ForecasterContract::race_ = nullptr;
features::CarVocab* ForecasterContract::vocab_ = nullptr;
std::shared_ptr<core::LstmSeqModel> ForecasterContract::model_;
std::shared_ptr<core::PitModel> ForecasterContract::pit_;

TEST_F(ForecasterContract, OracleShapesAndDeterminism) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "test");
  util::Rng rng1(9), rng2(9);
  const auto a = f.forecast(*race_, 50, 3, 7, rng1);
  const auto b = f.forecast(*race_, 50, 3, 7, rng2);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [car_id, m] : a) {
    EXPECT_EQ(m.rows(), 7u);
    EXPECT_EQ(m.cols(), 3u);
    const auto& n = b.at(car_id);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_DOUBLE_EQ(m.flat()[i], n.flat()[i]);
    }
  }
}

TEST_F(ForecasterContract, PitModelSourceRunsAndDiffersFromOracle) {
  core::RankNetForecaster oracle(model_, nullptr, *vocab_,
                                 features::CovariateConfig{},
                                 core::StatusSource::kOracle, "oracle");
  core::RankNetForecaster mlp(model_, pit_, *vocab_,
                              features::CovariateConfig{},
                              core::StatusSource::kPitModel, "mlp");
  util::Rng rng1(5), rng2(5);
  const auto a = oracle.forecast(*race_, 60, 4, 5, rng1);
  const auto b = mlp.forecast(*race_, 60, 4, 5, rng2);
  ASSERT_EQ(a.size(), b.size());
  // Different covariate futures must (almost surely) change the samples.
  bool differs = false;
  for (const auto& [car_id, m] : a) {
    const auto& n = b.at(car_id);
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m.flat()[i] != n.flat()[i]) differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST_F(ForecasterContract, ExcludesRetiredCars) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "test");
  util::Rng rng(3);
  const int origin = race_->num_laps() - 5;
  const auto samples = f.forecast(*race_, origin, 2, 3, rng);
  for (const auto& [car_id, _] : samples) {
    EXPECT_GE(race_->car(car_id).laps(), static_cast<std::size_t>(origin));
  }
  // At least one car retired before the final laps in a 200-lap race.
  EXPECT_LT(samples.size(), race_->car_ids().size());
}

TEST_F(ForecasterContract, RejectsBadArguments) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "test");
  util::Rng rng(1);
  EXPECT_THROW(f.forecast(*race_, 1, 2, 4, rng), std::invalid_argument);
  EXPECT_THROW(f.forecast(*race_, 50, 0, 4, rng), std::invalid_argument);
  EXPECT_THROW(f.forecast(*race_, 50, 2, 0, rng), std::invalid_argument);
}

TEST_F(ForecasterContract, PitModelSourceRequiresPitModel) {
  EXPECT_THROW(core::RankNetForecaster(model_, nullptr, *vocab_,
                                       features::CovariateConfig{},
                                       core::StatusSource::kPitModel, "bad"),
               std::invalid_argument);
}

TEST_F(ForecasterContract, TransformerForecasterContract) {
  core::TransformerConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.model_dim = 16;
  cfg.heads = 4;
  cfg.blocks = 1;
  cfg.embed_dim = 2;
  cfg.vocab = vocab_->size();
  cfg.infer_context = 12;
  auto tf = std::make_shared<core::TransformerSeqModel>(cfg);
  tf->set_scaler(features::StandardScaler(17.0, 9.0));
  core::TransformerForecaster f(tf, nullptr, *vocab_,
                                features::CovariateConfig{},
                                core::StatusSource::kOracle, "tf");
  util::Rng rng(4);
  const auto samples = f.forecast(*race_, 40, 2, 3, rng);
  ASSERT_FALSE(samples.empty());
  for (const auto& [_, m] : samples) {
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    for (double v : m.flat()) {
      EXPECT_GE(v, 1.0);
      EXPECT_LE(v, 45.0);
    }
  }
  // Joint source is documented as LSTM-only.
  EXPECT_THROW(core::TransformerForecaster(tf, nullptr, *vocab_,
                                           features::CovariateConfig{},
                                           core::StatusSource::kJoint, "x"),
               std::invalid_argument);
}

// RankNetForecaster traces a whole race in one LstmSeqModel::trace call,
// one row per car, over ragged lap counts. Every car's rows must equal the
// trace of that car alone, bit for bit — here on a race with retired cars
// and one car cut to 2 laps — and forecast eligibility keeps its rule.
TEST_F(ForecasterContract, RaceWideTraceMatchesPerCarTraces) {
  const int short_car = race_->car_ids().front();
  std::vector<telemetry::LapRecord> records;
  for (const auto& rec : race_->records()) {
    if (rec.car_id != short_car || rec.lap <= 2) records.push_back(rec);
  }
  const telemetry::RaceLog race(race_->info(), records);
  ASSERT_EQ(race.car(short_car).laps(), 2u);

  const features::CovariateConfig cov_config{};
  std::vector<std::vector<double>> histories;
  std::vector<std::vector<std::vector<double>>> covariates;
  std::vector<int> car_index;
  std::set<std::size_t> lap_counts;
  for (int car_id : race.car_ids()) {
    histories.push_back(race.car(car_id).rank);
    covariates.push_back(features::build_covariates(
        features::StatusStreams::from_race(race, car_id), cov_config));
    car_index.push_back(vocab_->index(car_id));
    lap_counts.insert(race.car(car_id).laps());
  }
  ASSERT_GE(lap_counts.size(), 3u) << "race is not ragged enough";

  const auto batched = model_->trace(histories, covariates, car_index);
  ASSERT_EQ(batched.size(), *lap_counts.rbegin() - 1);
  for (std::size_t r = 0; r < histories.size(); ++r) {
    const auto alone =
        model_->trace({histories[r]}, {covariates[r]}, {car_index[r]});
    ASSERT_EQ(alone.size(), histories[r].size() - 1);
    for (std::size_t t = 0; t < alone.size(); ++t) {
      for (std::size_t l = 0; l < alone[t].size(); ++l) {
        const std::size_t hidden = alone[t][l].h.cols();
        ASSERT_EQ(0, std::memcmp(batched[t][l].h.data() + r * hidden,
                                 alone[t][l].h.data(), hidden * sizeof(double)))
            << "row " << r << " step " << t << " layer " << l;
        ASSERT_EQ(0, std::memcmp(batched[t][l].c.data() + r * hidden,
                                 alone[t][l].c.data(), hidden * sizeof(double)))
            << "row " << r << " step " << t << " layer " << l;
      }
    }
  }

  // Eligible at an origin: at least 3 laps, and laps - 1 >= origin - 1.
  core::RankNetForecaster f(model_, nullptr, *vocab_, cov_config,
                            core::StatusSource::kOracle, "test");
  for (const int origin : {2, 3, 50, 150, race.num_laps() - 5,
                           race.num_laps()}) {
    std::vector<int> want;
    for (int car_id : race.car_ids()) {
      const auto laps = race.car(car_id).laps();
      if (laps >= 3 && laps >= static_cast<std::size_t>(origin)) {
        want.push_back(car_id);
      }
    }
    EXPECT_EQ(f.forecast_cars(race, origin), want) << "origin " << origin;
  }
}

// A race re-uploaded under the same id with more laps (a live feed that
// grew) must not be forecast from the traces of the shorter upload.
TEST_F(ForecasterContract, RaceReplacedUnderSameIdRebuildsTraces) {
  std::vector<telemetry::LapRecord> first_100;
  for (const auto& rec : race_->records()) {
    if (rec.lap <= 100) first_100.push_back(rec);
  }
  const telemetry::RaceLog partial(race_->info(), first_100);
  ASSERT_EQ(partial.id(), race_->id());

  for (const auto source :
       {core::StatusSource::kOracle, core::StatusSource::kPitModel}) {
    core::RankNetForecaster fresh(model_, pit_, *vocab_,
                                  features::CovariateConfig{}, source, "a");
    core::RankNetForecaster reused(model_, pit_, *vocab_,
                                   features::CovariateConfig{}, source, "b");
    util::Rng warm(1);
    ASSERT_FALSE(reused.forecast(partial, 60, 2, 3, warm).empty());

    util::Rng rng_fresh(8), rng_reused(8);
    const auto want = fresh.forecast(*race_, 150, 2, 3, rng_fresh);
    const auto got = reused.forecast(*race_, 150, 2, 3, rng_reused);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size()) << core::status_source_name(source);
    for (const auto& [car_id, m] : want) {
      const auto& n = got.at(car_id);
      ASSERT_EQ(0, std::memcmp(m.flat().data(), n.flat().data(),
                               m.size() * sizeof(double)));
    }
    // Forecasting the short upload again rebuilds once more.
    util::Rng again(1);
    EXPECT_FALSE(reused.forecast(partial, 60, 2, 3, again).empty());
    EXPECT_EQ(reused.forecast_cars(partial, 150).size(), 0u);
  }

  core::TransformerConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.model_dim = 16;
  cfg.heads = 4;
  cfg.blocks = 1;
  cfg.embed_dim = 2;
  cfg.vocab = vocab_->size();
  cfg.infer_context = 12;
  auto tf = std::make_shared<core::TransformerSeqModel>(cfg);
  tf->set_scaler(features::StandardScaler(17.0, 9.0));
  core::TransformerForecaster fresh(tf, pit_, *vocab_,
                                    features::CovariateConfig{},
                                    core::StatusSource::kPitModel, "tf");
  core::TransformerForecaster reused(tf, pit_, *vocab_,
                                     features::CovariateConfig{},
                                     core::StatusSource::kPitModel, "tf");
  util::Rng warm(1);
  ASSERT_FALSE(reused.forecast(partial, 60, 2, 3, warm).empty());
  util::Rng rng_fresh(8), rng_reused(8);
  EXPECT_EQ(reused.forecast(*race_, 150, 2, 3, rng_reused).size(),
            fresh.forecast(*race_, 150, 2, 3, rng_fresh).size());
}

// ---------------------------------------------------------------------------
// StatusWindowSampler vs a full-prefix reference.

// Reference realization over the full prefix: each car's observed prefix
// extended by its sampled pit laps (one MLP call per stint), TrackStatus
// green, TotalPitCount over the field, LeaderPitCount from pitting cars
// with a strictly better origin rank, then build_covariates over the whole
// extended stream.
std::vector<std::vector<std::vector<double>>> reference_realization(
    const std::vector<const features::StatusStreams*>& streams,
    const std::vector<double>& origin_rank, const core::PitModel& pit_model,
    const features::CovariateConfig& config, std::size_t origin,
    std::size_t future_len, util::Rng& rng) {
  const std::size_t n = streams.size();
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  const core::PitModel::InferenceSession pit(pit_model, ws);
  std::vector<std::vector<double>> predicted(
      n, std::vector<double>(future_len, 0.0));
  for (std::size_t c = 0; c < n; ++c) {
    core::PitFeatures f = core::current_pit_features(*streams[c], origin);
    std::size_t lap = 0;
    while (lap < future_len) {
      const auto p = pit.predict(f);
      const long to_pit = std::lround(rng.normal(p.mean, p.stddev));
      const auto at = lap + static_cast<std::size_t>(std::max(1L, to_pit));
      if (at > future_len) break;
      predicted[c][at - 1] = 1.0;
      lap = at;
      f = core::PitFeatures{};
    }
  }
  std::vector<std::vector<std::vector<double>>> out;
  for (std::size_t c = 0; c < n; ++c) {
    features::StatusStreams ext;
    const auto prefix = [origin](const std::vector<double>& v) {
      return std::vector<double>(v.begin(),
                                 v.begin() + static_cast<std::ptrdiff_t>(origin));
    };
    ext.track_status = prefix(streams[c]->track_status);
    ext.lap_status = prefix(streams[c]->lap_status);
    ext.total_pit_count = prefix(streams[c]->total_pit_count);
    ext.leader_pit_count = prefix(streams[c]->leader_pit_count);
    for (std::size_t t = 0; t < future_len; ++t) {
      double total = 0.0, leaders = 0.0;
      for (std::size_t o = 0; o < n; ++o) {
        total += predicted[o][t];
        if (o != c && predicted[o][t] > 0.5 &&
            origin_rank[o] < origin_rank[c]) {
          leaders += 1.0;
        }
      }
      ext.track_status.push_back(0.0);
      ext.lap_status.push_back(predicted[c][t]);
      ext.total_pit_count.push_back(total);
      ext.leader_pit_count.push_back(leaders);
    }
    out.push_back(features::build_covariates(ext, config));
  }
  return out;
}

class StatusWindowSamplerTest : public ForecasterContract {
 protected:
  struct Field {
    std::vector<features::StatusStreams> streams;
    std::vector<double> ranks;
  };

  /// Every car still running at `origin`, ascending id. `tie_ranks`
  /// buckets origin ranks four to a value so many cars tie.
  static Field field_at(std::size_t origin, bool tie_ranks) {
    Field f;
    for (int car_id : race_->car_ids()) {
      const auto& car = race_->car(car_id);
      if (car.laps() < origin) continue;
      f.streams.push_back(features::StatusStreams::from_race(*race_, car_id));
      const double rank = car.rank[origin - 1];
      f.ranks.push_back(tie_ranks ? std::floor(rank / 4.0) : rank);
    }
    return f;
  }

  /// Draws `draws` realizations from the sampler and the reference off
  /// the same seed; rows [first, origin + horizon) and the rng state after
  /// every draw must match bit for bit.
  static void ExpectMatchesReference(const core::PitModel& pit,
                                     const features::CovariateConfig& config,
                                     std::size_t origin, std::size_t horizon,
                                     std::size_t first, bool tie_ranks) {
    const auto field = field_at(origin, tie_ranks);
    ASSERT_FALSE(field.streams.empty());
    std::vector<core::StatusWindowSampler::Car> cars;
    std::vector<const features::StatusStreams*> ptrs;
    for (std::size_t c = 0; c < field.streams.size(); ++c) {
      cars.push_back({&field.streams[c], field.ranks[c]});
      ptrs.push_back(&field.streams[c]);
    }
    core::StatusWindowSampler sampler(cars, pit, config, origin, horizon,
                                      first);
    ASSERT_EQ(sampler.first(), first);
    ASSERT_EQ(sampler.end(), origin + horizon);
    const auto future_len = horizon + static_cast<std::size_t>(config.shift);

    const std::uint64_t seed = origin * 131 + horizon * 7 + first;
    util::Rng got_rng(seed), want_rng(seed);
    for (int d = 0; d < 6; ++d) {
      sampler.draw(got_rng);
      const auto want = reference_realization(ptrs, field.ranks, pit, config,
                                              origin, future_len, want_rng);
      for (std::size_t c = 0; c < cars.size(); ++c) {
        ASSERT_EQ(want[c].size(), origin + future_len);
        for (std::size_t lap = first; lap < origin + horizon; ++lap) {
          const auto row = sampler.row(c, lap);
          ASSERT_EQ(row.size(), config.dim());
          ASSERT_EQ(0, std::memcmp(row.data(), want[c][lap].data(),
                                   row.size() * sizeof(double)))
              << "draw " << d << " car " << c << " lap " << lap
              << " origin " << origin << " first " << first;
        }
      }
      util::Rng got_next = got_rng, want_next = want_rng;
      for (int k = 0; k < 4; ++k) {
        ASSERT_EQ(got_next(), want_next()) << "rng drifted, draw " << d;
      }
    }
  }

  /// Windows the two forecasters use (encoder tail, Transformer context)
  /// plus the widest one.
  static std::vector<std::size_t> windows(std::size_t origin, int shift) {
    const auto tail = std::min<std::size_t>(static_cast<std::size_t>(shift),
                                            origin >= 2 ? origin - 2 : 0);
    return {origin, origin - tail, origin - std::min<std::size_t>(origin, 12),
            0};
  }

  /// A PitModel that stops every few laps, so windows see several stints.
  static std::shared_ptr<core::PitModel> busy_pit_model() {
    auto pit = std::make_shared<core::PitModel>();
    pit->set_scaler(features::StandardScaler(4.0, 3.0));
    return pit;
  }
};

TEST_F(StatusWindowSamplerTest, MatchesReferenceForEveryCovariateFlag) {
  const auto busy = busy_pit_model();
  for (int off = -1; off < 4; ++off) {
    features::CovariateConfig config;
    if (off == 0) config.race_status = false;
    if (off == 1) config.age_features = false;
    if (off == 2) config.context_features = false;
    if (off == 3) config.shift_features = false;
    for (const std::size_t origin : {std::size_t{60}, std::size_t{151}}) {
      for (const std::size_t first : windows(origin, config.shift)) {
        SCOPED_TRACE("flag off " + std::to_string(off));
        ExpectMatchesReference(*busy, config, origin, 6, first, false);
        ExpectMatchesReference(*pit_, config, origin, 10, first, false);
      }
    }
  }
}

TEST_F(StatusWindowSamplerTest, MatchesReferenceForEveryShift) {
  const auto busy = busy_pit_model();
  for (const int shift : {0, 1, 2, 3}) {
    features::CovariateConfig config;
    config.shift = shift;
    for (const std::size_t origin :
         {std::size_t{2}, std::size_t{3}, std::size_t{5}, std::size_t{90}}) {
      for (const std::size_t first : windows(origin, shift)) {
        SCOPED_TRACE("shift " + std::to_string(shift));
        ExpectMatchesReference(*busy, config, origin, 4, first, false);
        ExpectMatchesReference(*busy, config, origin, 1, first, false);
      }
    }
  }
}

TEST_F(StatusWindowSamplerTest, MatchesReferenceWithTiedOriginRanks) {
  const auto busy = busy_pit_model();
  features::CovariateConfig config;
  for (const std::size_t origin : {std::size_t{3}, std::size_t{40},
                                   std::size_t{120}}) {
    for (const std::size_t first : windows(origin, config.shift)) {
      ExpectMatchesReference(*busy, config, origin, 8, first, true);
    }
  }
}

TEST_F(StatusWindowSamplerTest, RejectsBadWindowsAndShortStreams) {
  const auto field = field_at(50, false);
  std::vector<core::StatusWindowSampler::Car> cars{
      {&field.streams[0], field.ranks[0]}};
  features::CovariateConfig config;
  EXPECT_THROW(core::StatusWindowSampler(cars, *pit_, config, 50, 2, 51),
               std::invalid_argument);
  config.shift = -1;
  EXPECT_THROW(core::StatusWindowSampler(cars, *pit_, config, 50, 2, 48),
               std::invalid_argument);
  features::CovariateConfig ok;
  EXPECT_THROW(core::StatusWindowSampler(cars, *pit_, ok, 100000, 2, 99999),
               std::invalid_argument);
}

}  // namespace
