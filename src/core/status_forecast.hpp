// Shared Algorithm-2 step 1: sampling one coupled future race-status
// realization for every car from the PitModel, and assembling the
// covariate rows the decoder reads (ground truth through the origin lap,
// predictions after). Used by both the LSTM and the Transformer RankNet
// forecasters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/pit_model.hpp"
#include "features/window.hpp"

namespace ranknet::core {

/// FNV-1a digest (core::Fnv1a) over the bit patterns of a sequence of
/// covariate rows. The decode tree uses it as the fork signature: MC
/// samples whose realized pit/caution covariates coincide bit-for-bit over
/// the shared-prefix window (encoder-tail laps + the first decode lap) land
/// in the same branch. Hashing bit patterns — not values — keeps the
/// grouping aligned with the byte-identity contract (0.0 and -0.0 differ).
std::uint64_t covariate_window_digest(
    std::span<const std::span<const double>> rows);

/// Accumulation features (CautionLaps, PitAge) at the end of `origin` laps.
PitFeatures current_pit_features(const features::StatusStreams& streams,
                                 std::size_t origin);

/// Draws coupled race-status realizations for a field of cars and keeps
/// only the covariate rows a decoder reads: 0-based laps [first, end) with
/// end = origin + horizon.
///
/// Each realization samples every car's pit stops over the next
/// horizon + shift laps (the shift look-ahead of the last rows), in the
/// order the cars were given. TrackStatus is assumed green in the future;
/// LeaderPitCount counts pitting cars with a strictly better origin rank;
/// TotalPitCount sums the field. The rows equal laps [first, end) of
/// features::build_covariates over each car's observed prefix extended by
/// the realization, bit for bit.
///
/// Everything that does not depend on the draw is computed once at
/// construction: each car's PitModel prediction at its origin features,
/// the prediction every post-stop stint starts from, the rows no draw can
/// change, and the age carry at the origin. draw() then costs the rng
/// calls plus O(cars x window) arithmetic into reused buffers.
class StatusWindowSampler {
 public:
  /// One car of the coupled field. `streams` must cover `origin` laps and
  /// outlive the sampler.
  struct Car {
    const features::StatusStreams* streams = nullptr;
    double origin_rank = 0.0;
  };

  /// Runs the PitModel MLP in a new epoch of the calling thread's
  /// tensor::Workspace (views taken before it are invalidated). Throws
  /// std::invalid_argument when first > origin, config.shift < 0 or a
  /// car's streams are shorter than `origin`.
  StatusWindowSampler(std::span<const Car> cars, const PitModel& pit_model,
                      const features::CovariateConfig& config,
                      std::size_t origin, std::size_t horizon,
                      std::size_t first);

  /// Draws one realization into the row buffers. Calls rng.normal exactly
  /// as often, and with the same arguments, as sampling each car in turn
  /// with PitModel::sample_future_lap_status over horizon + shift laps.
  void draw(util::Rng& rng);

  std::size_t first() const { return first_; }
  std::size_t end() const { return origin_ + horizon_; }
  std::size_t cars() const { return cars_.size(); }

  /// Covariate row of car `car` (index into the constructor's span) at
  /// 0-based lap `lap` in [first(), end()), as of the last draw().
  std::span<const double> row(std::size_t car, std::size_t lap) const {
    return {rows_.data() + (car * width_ + (lap - first_)) * dim_, dim_};
  }

 private:
  std::span<double> mutable_row(std::size_t car, std::size_t lap) {
    return {rows_.data() + (car * width_ + (lap - first_)) * dim_, dim_};
  }
  /// Observed inputs of `lap` < origin; shift fields only when the
  /// look-ahead lap is observed too.
  features::CovariateLap observed_lap(const features::StatusStreams& s,
                                      std::size_t lap) const;

  std::vector<Car> cars_;
  features::CovariateConfig config_;
  std::size_t origin_, horizon_, first_;
  std::size_t future_len_;  // horizon + shift: the laps each draw samples
  std::size_t dirty_;       // first lap a draw can change
  std::size_t width_;       // end() - first
  std::size_t dim_;

  std::vector<PitModel::Prediction> origin_pred_;  // per car
  PitModel::Prediction fresh_pred_;
  std::vector<features::AgeCarry> carry_;  // per car, after lap dirty_ - 1
  std::vector<double> pits_;               // cars x future_len_
  std::vector<double> total_;              // future_len_
  std::vector<double> leaders_;            // cars x horizon_
  std::vector<double> pitter_ranks_;       // scratch: one lap's pitters
  std::vector<double> rows_;               // cars x width_ x dim_
};

}  // namespace ranknet::core
