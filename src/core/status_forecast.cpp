#include "core/status_forecast.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/forecast_cache.hpp"
#include "tensor/workspace.hpp"

namespace ranknet::core {

std::uint64_t covariate_window_digest(
    std::span<const std::span<const double>> rows) {
  Fnv1a h;
  for (const auto& row : rows) {
    h.update_u64(static_cast<std::uint64_t>(row.size()));
    for (double v : row) h.update_double(v);
  }
  return h.digest();
}

PitFeatures current_pit_features(const features::StatusStreams& streams,
                                 std::size_t origin) {
  features::AgeCarry age;
  const std::size_t n = std::min(origin, streams.laps());
  for (std::size_t t = 0; t < n; ++t) {
    age.advance(streams.lap_status[t], streams.track_status[t]);
  }
  PitFeatures f;
  f.caution_laps = age.caution_laps;
  f.pit_age = age.pit_age;
  return f;
}

StatusWindowSampler::StatusWindowSampler(
    std::span<const Car> cars, const PitModel& pit_model,
    const features::CovariateConfig& config, std::size_t origin,
    std::size_t horizon, std::size_t first)
    : cars_(cars.begin(), cars.end()),
      config_(config),
      origin_(origin),
      horizon_(horizon),
      first_(first) {
  if (first > origin || config.shift < 0) {
    throw std::invalid_argument("StatusWindowSampler: bad window");
  }
  const auto shift = static_cast<std::size_t>(config.shift);
  future_len_ = horizon + shift;
  // Only the shift look-ahead of the last `shift` observed laps reads the
  // realization; earlier rows are fixed for the whole forecast.
  const std::size_t lookahead = config.shift_features ? shift : 0;
  dirty_ = std::max(first, origin - std::min(origin, lookahead));
  width_ = origin + horizon - first;
  dim_ = config.dim();

  const std::size_t n = cars_.size();
  origin_pred_.resize(n);
  carry_.resize(n);
  pits_.assign(n * future_len_, 0.0);
  total_.assign(future_len_, 0.0);
  leaders_.assign(n * horizon, 0.0);
  pitter_ranks_.reserve(n);
  rows_.assign(n * width_ * dim_, 0.0);

  // The MLP inputs are the same for every draw: one prediction per car at
  // its origin features, one for the fresh stint after any stop.
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  const PitModel::InferenceSession pit(pit_model, ws);
  fresh_pred_ = pit.predict(PitFeatures{});
  for (std::size_t c = 0; c < n; ++c) {
    const auto& s = *cars_[c].streams;
    if (s.track_status.size() < origin || s.lap_status.size() < origin ||
        s.total_pit_count.size() < origin ||
        s.leader_pit_count.size() < origin) {
      throw std::invalid_argument(
          "StatusWindowSampler: streams shorter than the origin");
    }
    features::AgeCarry age;
    for (std::size_t lap = 0; lap < origin; ++lap) {
      if (lap == dirty_) carry_[c] = age;
      age.advance(s.lap_status[lap], s.track_status[lap]);
      if (lap >= first && lap < dirty_) {
        features::write_covariate_row(observed_lap(s, lap), age, config_,
                                      mutable_row(c, lap));
      }
    }
    if (dirty_ == origin) carry_[c] = age;
    origin_pred_[c] = pit.predict({age.caution_laps, age.pit_age});
  }
}

features::CovariateLap StatusWindowSampler::observed_lap(
    const features::StatusStreams& s, std::size_t lap) const {
  features::CovariateLap in;
  in.track_status = s.track_status[lap];
  in.lap_status = s.lap_status[lap];
  in.leader_pit_count = s.leader_pit_count[lap];
  in.total_pit_count = s.total_pit_count[lap];
  const std::size_t ts = lap + static_cast<std::size_t>(config_.shift);
  if (ts < origin_) {
    in.shift_lap_status = s.lap_status[ts];
    in.shift_track_status = s.track_status[ts];
    in.shift_total_pit_count = s.total_pit_count[ts];
  }
  return in;
}

void StatusWindowSampler::draw(util::Rng& rng) {
  const std::size_t n = cars_.size();
  // Every car's pit laps first, in the given car order: they couple
  // through the race-context features.
  for (std::size_t c = 0; c < n; ++c) {
    PitModel::sample_stints(
        origin_pred_[c], fresh_pred_,
        std::span<double>(pits_.data() + c * future_len_, future_len_), rng);
  }
  std::fill(total_.begin(), total_.end(), 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t k = 0; k < future_len_; ++k) {
      total_[k] += pits_[c * future_len_ + k];
    }
  }
  // LeaderPitCount of future laps: pitting cars ranked strictly ahead at
  // the origin (ties do not count each other).
  for (std::size_t k = 0; k < horizon_; ++k) {
    pitter_ranks_.clear();
    for (std::size_t c = 0; c < n; ++c) {
      if (pits_[c * future_len_ + k] > 0.5) {
        pitter_ranks_.push_back(cars_[c].origin_rank);
      }
    }
    for (std::size_t c = 0; c < n; ++c) {
      double leaders = 0.0;
      for (const double r : pitter_ranks_) {
        if (r < cars_[c].origin_rank) leaders += 1.0;
      }
      leaders_[c * horizon_ + k] = leaders;
    }
  }

  const auto shift = static_cast<std::size_t>(config_.shift);
  for (std::size_t c = 0; c < n; ++c) {
    const auto& s = *cars_[c].streams;
    const double* pits = pits_.data() + c * future_len_;
    features::AgeCarry age = carry_[c];
    for (std::size_t lap = dirty_; lap < end(); ++lap) {
      features::CovariateLap in;
      if (lap < origin_) {
        in = observed_lap(s, lap);
      } else {
        const std::size_t k = lap - origin_;
        in.track_status = 0.0;  // Algorithm 2: assume green
        in.lap_status = pits[k];
        in.leader_pit_count = leaders_[c * horizon_ + k];
        in.total_pit_count = total_[k];
      }
      const std::size_t ts = lap + shift;
      if (ts >= origin_) {
        in.shift_lap_status = pits[ts - origin_];
        in.shift_track_status = 0.0;
        in.shift_total_pit_count = total_[ts - origin_];
      }
      age.advance(in.lap_status, in.track_status);
      features::write_covariate_row(in, age, config_, mutable_row(c, lap));
    }
  }
}

}  // namespace ranknet::core
