#include "core/ranknet.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "core/device_model.hpp"
#include "core/status_forecast.hpp"
#include "util/string_util.hpp"

namespace ranknet::core {

const char* status_source_name(StatusSource s) {
  switch (s) {
    case StatusSource::kOracle: return "Oracle";
    case StatusSource::kPitModel: return "PitModel";
    case StatusSource::kJoint: return "Joint";
  }
  return "?";
}

DecodeMode default_decode_mode() {
  static const DecodeMode mode = [] {
    const char* env = std::getenv("RANKNET_DECODE");
    if (env != nullptr && std::string_view(env) == "independent") {
      return DecodeMode::kIndependent;
    }
    return DecodeMode::kTree;
  }();
  return mode;
}

namespace {

// (car id, laps) of every car, in id order: what the trace caches compare
// to notice a race replaced under the same id.
using RaceShape = std::vector<std::pair<int, std::size_t>>;

RaceShape race_shape(const telemetry::RaceLog& race) {
  RaceShape shape;
  shape.reserve(race.cars().size());
  for (const auto& [car_id, car] : race.cars()) {
    shape.emplace_back(car_id, car.laps());
  }
  return shape;
}

bool same_shape(const RaceShape& shape, const telemetry::RaceLog& race) {
  if (shape.size() != race.cars().size()) return false;
  auto it = shape.begin();
  for (const auto& [car_id, car] : race.cars()) {
    if (it->first != car_id || it->second != car.laps()) return false;
    ++it;
  }
  return true;
}

}  // namespace

RankNetForecaster::RankNetForecaster(
    std::shared_ptr<const LstmSeqModel> model,
    std::shared_ptr<const PitModel> pit_model, features::CarVocab vocab,
    features::CovariateConfig cov_config, StatusSource source,
    std::string name)
    : model_(std::move(model)),
      pit_model_(std::move(pit_model)),
      vocab_(std::move(vocab)),
      cov_config_(cov_config),
      source_(source),
      name_(std::move(name)) {
  if (source_ == StatusSource::kPitModel && pit_model_ == nullptr) {
    throw std::invalid_argument("RankNetForecaster: PitModel source needs a pit model");
  }
}

const RankNetForecaster::RaceCache& RankNetForecaster::race_cache(
    const telemetry::RaceLog& race) {
  if (const RaceCache* hit = find_cache(race)) return *hit;

  // One batched trace over the race, one row per car (ragged lap counts
  // are fine: see LstmSeqModel::trace).
  std::vector<int> ids;
  std::vector<std::vector<double>> histories;
  std::vector<features::StatusStreams> streams;
  std::vector<std::vector<std::vector<double>>> covariates;
  std::vector<int> car_index;
  for (int car_id : race.car_ids()) {
    const auto& car = race.car(car_id);
    if (car.laps() < 3) continue;
    ids.push_back(car_id);
    histories.push_back(car.rank);
    streams.push_back(features::StatusStreams::from_race(race, car_id));
    covariates.push_back(
        features::build_covariates(streams.back(), cov_config_));
    car_index.push_back(vocab_.index(car_id));
  }
  RaceCache rc;
  rc.shape = race_shape(race);
  rc.trace = model_->trace(histories, covariates, car_index);
  for (std::size_t r = 0; r < ids.size(); ++r) {
    rc.cars.emplace(ids[r], CarCache{std::move(histories[r]),
                                     std::move(streams[r]),
                                     std::move(covariates[r]), r});
  }
  return cache_.insert_or_assign(race.id(), std::move(rc)).first->second;
}

void RankNetForecaster::prepare(const telemetry::RaceLog& race) {
  race_cache(race);
}

const RankNetForecaster::RaceCache* RankNetForecaster::find_cache(
    const telemetry::RaceLog& race) const {
  const auto it = cache_.find(race.id());
  return it == cache_.end() || !same_shape(it->second.shape, race)
             ? nullptr
             : &it->second;
}

std::vector<int> RankNetForecaster::forecast_cars(
    const telemetry::RaceLog& race, int origin_lap) {
  const auto& rc = race_cache(race);
  const auto origin = static_cast<std::size_t>(origin_lap);
  // Cars whose trace rows reach the forecast origin: laps - 1 >= origin - 1.
  std::vector<int> cars;
  for (const auto& [car_id, cc] : rc.cars) {
    if (cc.history.size() >= origin) cars.push_back(car_id);
  }
  return cars;
}

RaceSamples RankNetForecaster::forecast(const telemetry::RaceLog& race,
                                        int origin_lap, int horizon,
                                        int num_samples, util::Rng& rng) {
  if (origin_lap < 2 || horizon < 1 || num_samples < 1) {
    throw std::invalid_argument("RankNetForecaster::forecast: bad arguments");
  }
  prepare(race);
  const std::uint64_t base = rng();
  const auto cars = forecast_cars(race, origin_lap);
  return forecast_partition(race, origin_lap, horizon, num_samples, base,
                            cars);
}

RaceSamples RankNetForecaster::forecast_partition(
    const telemetry::RaceLog& race, int origin_lap, int horizon,
    int num_samples, std::uint64_t base, std::span<const int> cars_span) {
  if (origin_lap < 2 || horizon < 1 || num_samples < 1) {
    throw std::invalid_argument("RankNetForecaster::forecast: bad arguments");
  }
  const RaceCache* rc_ptr = find_cache(race);
  if (rc_ptr == nullptr) {
    prepare(race);  // single-threaded caller without prior prepare()
    rc_ptr = find_cache(race);
  }
  const RaceCache& rc = *rc_ptr;
  const auto origin = static_cast<std::size_t>(origin_lap);
  const auto h_count = static_cast<std::size_t>(horizon);
  const auto s_count = static_cast<std::size_t>(num_samples);

  const std::vector<int> cars(cars_span.begin(), cars_span.end());
  if (cars.empty()) return {};

  // Encoder-tail correction: with predicted status, the shift features of
  // the last `shift` encoder laps must not peek at the true future.
  const int tail_wanted =
      source_ == StatusSource::kPitModel && cov_config_.shift_features
          ? cov_config_.shift
          : 0;
  const int tail = std::min<int>(tail_wanted, origin_lap - 2);

  const std::size_t rows = cars.size() * s_count;
  std::vector<int> car_index(rows);
  std::vector<std::vector<double>> z_prev(rows);
  std::vector<std::vector<std::vector<double>>> future_covs(rows);
  // Per-row covariates of the tail laps (teacher-forced replay window).
  std::vector<std::vector<std::vector<double>>> tail_covs(
      static_cast<std::size_t>(tail));
  for (auto& step : tail_covs) step.resize(rows);
  std::vector<std::vector<std::vector<double>>> tail_z(
      static_cast<std::size_t>(tail));
  for (auto& step : tail_z) step.resize(rows);

  const auto trace_idx = origin - 2 - static_cast<std::size_t>(tail);

  if (source_ == StatusSource::kPitModel) {
    // The status realization couples every active car (LeaderPitCount sees
    // the whole field), so it is always drawn over the full car set — a
    // partition holding a subset of cars replays the identical realization.
    // The sampler keeps only the rows the decoder reads: the tail laps and
    // the horizon.
    const auto all_cars = forecast_cars(race, origin_lap);
    std::vector<StatusWindowSampler::Car> field;
    field.reserve(all_cars.size());
    for (int car_id : all_cars) {
      const auto& cc = rc.cars.at(car_id);
      field.push_back({&cc.streams, cc.history[origin - 1]});
    }
    StatusWindowSampler sampler(field, *pit_model_, cov_config_, origin,
                                h_count,
                                origin - static_cast<std::size_t>(tail));
    // Field index of each partition car (all_cars is ascending).
    std::vector<std::size_t> field_index(cars.size());
    for (std::size_t c = 0; c < cars.size(); ++c) {
      const auto it =
          std::lower_bound(all_cars.begin(), all_cars.end(), cars[c]);
      if (it == all_cars.end() || *it != cars[c]) {
        throw std::out_of_range(
            "RankNetForecaster: partition car not in the forecast field");
      }
      field_index[c] = static_cast<std::size_t>(it - all_cars.begin());
    }
    const auto to_vector = [](std::span<const double> r) {
      return std::vector<double>(r.begin(), r.end());
    };
    for (std::size_t s = 0; s < s_count; ++s) {
      // One coupled race-status realization across all cars, from a child
      // stream keyed by the sample index alone (k2 = 0 keeps the status
      // keys disjoint from the per-row keys below, which use k2 >= 1).
      util::Rng status_rng = util::Rng::stream(base, s, 0);
      sampler.draw(status_rng);

      for (std::size_t c = 0; c < cars.size(); ++c) {
        const auto& cc = rc.cars.at(cars[c]);
        const std::size_t row = c * s_count + s;
        const std::size_t fi = field_index[c];

        car_index[row] = vocab_.index(cars[c]);
        z_prev[row] = {cc.history[origin - 1]};
        auto& fc = future_covs[row];
        fc.resize(h_count);
        for (std::size_t h = 0; h < h_count; ++h) {
          fc[h] = to_vector(sampler.row(fi, origin + h));
        }
        for (int t = 0; t < tail; ++t) {
          // Tail step t replays lap (origin - tail + t): input is
          // [z at that lap - 1, cov at that lap].
          const auto lap0 =
              origin - static_cast<std::size_t>(tail) + static_cast<std::size_t>(t);
          tail_z[static_cast<std::size_t>(t)][row] = {cc.history[lap0 - 1]};
          tail_covs[static_cast<std::size_t>(t)][row] =
              to_vector(sampler.row(fi, lap0));
        }
      }
    }
  } else {
    // Oracle / Joint / DeepAR: covariates straight from the cached
    // (ground-truth) streams; rows for the same car share them.
    for (std::size_t c = 0; c < cars.size(); ++c) {
      const int car_id = cars[c];
      const auto& cc = rc.cars.at(car_id);
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::size_t row = c * s_count + s;
        car_index[row] = vocab_.index(car_id);
        if (source_ == StatusSource::kJoint) {
          // Multivariate target: [rank, aux status dims from covariates].
          z_prev[row] = {cc.history[origin - 1]};
          const auto& aux = cc.covariates[origin - 1];
          for (std::size_t j = 0; j + 1 < model_->config().target_dim; ++j) {
            z_prev[row].push_back(j < aux.size() ? aux[j] : 0.0);
          }
        } else {
          z_prev[row] = {cc.history[origin - 1]};
        }
        auto& fc = future_covs[row];
        fc.resize(h_count);
        for (std::size_t h = 0; h < h_count; ++h) {
          const std::size_t idx = origin + h;
          fc[h] = idx < cc.covariates.size()
                      ? cc.covariates[idx]
                      : std::vector<double>(cov_config_.dim(), 0.0);
        }
      }
    }
  }

  // One independent noise stream per (car, sample) row, keyed so the draw
  // for a row never depends on which other rows share the batch.
  std::vector<util::Rng> row_rngs;
  row_rngs.reserve(rows);
  for (std::size_t c = 0; c < cars.size(); ++c) {
    for (std::size_t s = 0; s < s_count; ++s) {
      row_rngs.push_back(util::Rng::stream(
          base, static_cast<std::uint64_t>(cars[c]), s + 1));
    }
  }

  tensor::Matrix out;
  if (decode_mode_ == DecodeMode::kTree) {
    // ---- shared-prefix decode tree ------------------------------------
    // A branch is a set of same-car rows whose prefix inputs (tail-lap and
    // first-decode-lap covariates; z_prev and tail targets are per-car by
    // construction) coincide bit-for-bit. Oracle/Joint/DeepAR rows of a car
    // always coincide (ground-truth covariates): one branch per car.
    // PitModel rows fork where their sampled pit/caution realizations
    // diverge inside the prefix window: grouped by covariate_window_digest,
    // then confirmed by exact bit comparison (digest collisions must not
    // merge distinct branches).
    const auto windows_equal = [&](std::size_t a, std::size_t b) {
      const auto bits_equal = [](const std::vector<double>& x,
                                 const std::vector<double>& y) {
        return x.size() == y.size() &&
               (x.empty() || std::memcmp(x.data(), y.data(),
                                         x.size() * sizeof(double)) == 0);
      };
      for (int t = 0; t < tail; ++t) {
        const auto& step = tail_covs[static_cast<std::size_t>(t)];
        if (!bits_equal(step[a], step[b])) return false;
      }
      return bits_equal(future_covs[a][0], future_covs[b][0]);
    };

    std::vector<std::size_t> branch_of_row(rows);
    std::vector<std::size_t> branch_rep;  // first member row per branch
    for (std::size_t c = 0; c < cars.size(); ++c) {
      if (source_ != StatusSource::kPitModel) {
        const std::size_t b = branch_rep.size();
        branch_rep.push_back(c * s_count);
        for (std::size_t s = 0; s < s_count; ++s) {
          branch_of_row[c * s_count + s] = b;
        }
        continue;
      }
      // digest -> branch ids of this car (usually one; more on collision)
      std::map<std::uint64_t, std::vector<std::size_t>> groups;
      std::vector<std::span<const double>> window(
          static_cast<std::size_t>(tail) + 1);
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::size_t row = c * s_count + s;
        for (int t = 0; t < tail; ++t) {
          window[static_cast<std::size_t>(t)] =
              tail_covs[static_cast<std::size_t>(t)][row];
        }
        window[static_cast<std::size_t>(tail)] = future_covs[row][0];
        auto& bucket = groups[covariate_window_digest(window)];
        std::size_t found = rows;
        for (std::size_t b : bucket) {
          if (windows_equal(branch_rep[b], row)) {
            found = b;
            break;
          }
        }
        if (found == rows) {
          found = branch_rep.size();
          branch_rep.push_back(row);
          bucket.push_back(found);
        }
        branch_of_row[row] = found;
      }
    }

    // Branch-width start state + teacher-forced tail replay: the whole
    // shared prefix runs at branch width instead of row width.
    const std::size_t n_branches = branch_rep.size();
    std::vector<LstmSeqModel::StackState> per_branch_states;
    per_branch_states.reserve(n_branches);
    std::vector<int> branch_car_index(n_branches);
    std::vector<std::vector<std::vector<double>>> btail_z(
        static_cast<std::size_t>(tail));
    std::vector<std::vector<std::vector<double>>> btail_covs(
        static_cast<std::size_t>(tail));
    for (auto& step : btail_z) step.resize(n_branches);
    for (auto& step : btail_covs) step.resize(n_branches);
    for (std::size_t b = 0; b < n_branches; ++b) {
      const std::size_t row = branch_rep[b];
      const auto& cc = rc.cars.at(cars[row / s_count]);
      per_branch_states.push_back(
          LstmSeqModel::replicate_state(rc.trace[trace_idx], cc.row, 1));
      branch_car_index[b] = car_index[row];
      for (int t = 0; t < tail; ++t) {
        btail_z[static_cast<std::size_t>(t)][b] =
            tail_z[static_cast<std::size_t>(t)][row];
        btail_covs[static_cast<std::size_t>(t)][b] =
            tail_covs[static_cast<std::size_t>(t)][row];
      }
    }
    auto branch_state = LstmSeqModel::concat_states(per_branch_states);
    per_branch_states.clear();
    for (int t = 0; t < tail; ++t) {
      model_->advance(branch_state, btail_z[static_cast<std::size_t>(t)],
                      btail_covs[static_cast<std::size_t>(t)],
                      branch_car_index);
    }
    out = model_->sample_forward_tree(branch_state, branch_of_row, z_prev,
                                      future_covs, car_index, horizon,
                                      row_rngs);
    // shared_rows = row-steps of LSTM+head work skipped vs independent
    // decode (tail replay + decode step 1 ran at branch width).
    DecodeTreeCounters::instance().record_decode(
        rows, n_branches,
        (rows - n_branches) * (static_cast<std::size_t>(tail) + 1));
  } else {
    // ---- independent decode (historical path) -------------------------
    std::vector<LstmSeqModel::StackState> per_car_states;
    per_car_states.reserve(cars.size());
    for (std::size_t c = 0; c < cars.size(); ++c) {
      const auto& cc = rc.cars.at(cars[c]);
      per_car_states.push_back(
          LstmSeqModel::replicate_state(rc.trace[trace_idx], cc.row,
                                        s_count));
    }
    auto state = LstmSeqModel::concat_states(per_car_states);
    per_car_states.clear();

    // Teacher-forced tail replay (PitModel mode only; tail == 0 otherwise).
    for (int t = 0; t < tail; ++t) {
      model_->advance(state, tail_z[static_cast<std::size_t>(t)],
                      tail_covs[static_cast<std::size_t>(t)], car_index);
    }
    out = model_->sample_forward(state, z_prev, future_covs, car_index,
                                 horizon, row_rngs);
  }

  RaceSamples samples;
  for (std::size_t c = 0; c < cars.size(); ++c) {
    tensor::Matrix m(s_count, h_count);
    for (std::size_t s = 0; s < s_count; ++s) {
      for (std::size_t h = 0; h < h_count; ++h) {
        m(s, h) = out(c * s_count + s, h);
      }
    }
    samples.emplace(cars[c], std::move(m));
  }
  return samples;
}

TransformerForecaster::TransformerForecaster(
    std::shared_ptr<const TransformerSeqModel> model,
    std::shared_ptr<const PitModel> pit_model, features::CarVocab vocab,
    features::CovariateConfig cov_config, StatusSource source,
    std::string name)
    : model_(std::move(model)),
      pit_model_(std::move(pit_model)),
      vocab_(std::move(vocab)),
      cov_config_(cov_config),
      source_(source),
      name_(std::move(name)) {
  if (source_ == StatusSource::kPitModel && pit_model_ == nullptr) {
    throw std::invalid_argument(
        "TransformerForecaster: PitModel source needs a pit model");
  }
  if (source_ == StatusSource::kJoint) {
    throw std::invalid_argument(
        "TransformerForecaster: Joint variant is LSTM-only in this repo");
  }
}

const TransformerForecaster::RaceCache& TransformerForecaster::race_cache(
    const telemetry::RaceLog& race) {
  const auto it = cache_.find(race.id());
  if (it != cache_.end() && same_shape(it->second.shape, race)) {
    return it->second;
  }
  RaceCache rc;
  rc.shape = race_shape(race);
  for (int car_id : race.car_ids()) {
    const auto& car = race.car(car_id);
    if (car.laps() < 3) continue;
    CarCache cc;
    cc.history = car.rank;
    cc.streams = features::StatusStreams::from_race(race, car_id);
    cc.covariates = features::build_covariates(cc.streams, cov_config_);
    rc.cars.emplace(car_id, std::move(cc));
  }
  return cache_.insert_or_assign(race.id(), std::move(rc)).first->second;
}

RaceSamples TransformerForecaster::forecast(const telemetry::RaceLog& race,
                                            int origin_lap, int horizon,
                                            int num_samples, util::Rng& rng) {
  if (origin_lap < 3 || horizon < 1 || num_samples < 1) {
    throw std::invalid_argument("TransformerForecaster: bad arguments");
  }
  const auto& rc = race_cache(race);
  const auto origin = static_cast<std::size_t>(origin_lap);
  const auto h_count = static_cast<std::size_t>(horizon);
  const auto s_count = static_cast<std::size_t>(num_samples);

  std::vector<int> cars;
  for (const auto& [car_id, cc] : rc.cars) {
    if (cc.history.size() >= origin) cars.push_back(car_id);
  }
  if (cars.empty()) return {};

  const std::size_t ctx =
      std::min<std::size_t>(model_->config().infer_context, origin);
  const std::size_t first_lap = origin - ctx;  // 0-based index of first lap

  const std::size_t rows = cars.size() * s_count;
  std::vector<int> car_index(rows);
  std::vector<std::vector<double>> history(rows);
  std::vector<std::vector<std::vector<double>>> covs(rows);

  // Per row: the car's embedding index and its observed context ranks.
  const auto fill_history = [&](std::size_t row, int car_id,
                                const std::vector<double>& ranks) {
    car_index[row] = vocab_.index(car_id);
    history[row].assign(ranks.begin() + static_cast<std::ptrdiff_t>(first_lap),
                        ranks.begin() + static_cast<std::ptrdiff_t>(origin));
    covs[row].resize(ctx + h_count);
  };

  if (source_ == StatusSource::kPitModel) {
    std::vector<StatusWindowSampler::Car> field;
    field.reserve(cars.size());
    for (int car_id : cars) {
      const auto& cc = rc.cars.at(car_id);
      field.push_back({&cc.streams, cc.history[origin - 1]});
    }
    StatusWindowSampler sampler(field, *pit_model_, cov_config_, origin,
                                h_count, first_lap);
    for (std::size_t s = 0; s < s_count; ++s) {
      sampler.draw(rng);
      for (std::size_t c = 0; c < cars.size(); ++c) {
        const std::size_t row = c * s_count + s;
        fill_history(row, cars[c], rc.cars.at(cars[c]).history);
        for (std::size_t t = 0; t < ctx + h_count; ++t) {
          const auto r = sampler.row(c, first_lap + t);
          covs[row][t].assign(r.begin(), r.end());
        }
      }
    }
  } else {
    for (std::size_t c = 0; c < cars.size(); ++c) {
      const auto& cc = rc.cars.at(cars[c]);
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::size_t row = c * s_count + s;
        fill_history(row, cars[c], cc.history);
        for (std::size_t t = 0; t < ctx + h_count; ++t) {
          const std::size_t idx = first_lap + t;
          covs[row][t] = idx < cc.covariates.size()
                             ? cc.covariates[idx]
                             : std::vector<double>(cov_config_.dim(), 0.0);
        }
      }
    }
  }

  const auto out = model_->sample_forecast(history, covs, car_index, horizon,
                                           rng);
  RaceSamples samples;
  for (std::size_t c = 0; c < cars.size(); ++c) {
    tensor::Matrix m(s_count, h_count);
    for (std::size_t s = 0; s < s_count; ++s) {
      for (std::size_t h = 0; h < h_count; ++h) {
        m(s, h) = out(c * s_count + s, h);
      }
    }
    samples.emplace(cars[c], std::move(m));
  }
  return samples;
}

}  // namespace ranknet::core
