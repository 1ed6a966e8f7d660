// Sliding-window sequence dataset construction for the encoder-decoder
// models (paper Fig. 5a: encoder length L0, decoder length k), plus the
// covariate assembly shared between training (ground-truth race status) and
// forecasting (race status predicted by the PitModel / oracle).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "features/transforms.hpp"
#include "telemetry/race_log.hpp"

namespace ranknet::features {

/// Which covariates enter the network (paper Table I + Fig. 7 steps 3-4).
struct CovariateConfig {
  bool race_status = true;   // TrackStatus, LapStatus (RankNet; off = DeepAR)
  bool age_features = true;  // CautionLaps, PitAge accumulation transforms
  bool context_features = true;  // LeaderPitCount, TotalPitCount (Fig.7 s3)
  bool shift_features = true;    // status/pit counts at lap t+shift (Fig.7 s4)
  int shift = 2;

  std::size_t dim() const;
};

/// Raw per-lap status streams for one car, extendable past the observed
/// horizon with predicted values during forecasting.
struct StatusStreams {
  std::vector<double> track_status;      // 1 = yellow
  std::vector<double> lap_status;        // 1 = pit
  std::vector<double> total_pit_count;   // race context, per lap
  std::vector<double> leader_pit_count;  // per car, per lap

  std::size_t laps() const { return track_status.size(); }
  /// Extract ground-truth streams for (race, car).
  static StatusStreams from_race(const telemetry::RaceLog& race, int car_id);
};

/// Accumulation features carried from lap to lap (paper Table I): caution
/// laps and laps since the last pit stop. A pit lap resets both.
struct AgeCarry {
  double caution_laps = 0.0;
  double pit_age = 0.0;

  /// Fold in one lap (statuses above 0.5 count as set).
  void advance(double lap_status, double track_status) {
    if (lap_status > 0.5) {
      caution_laps = 0.0;
      pit_age = 0.0;
    } else {
      if (track_status > 0.5) caution_laps += 1.0;
      pit_age += 1.0;
    }
  }
};

/// The raw inputs of one covariate row at lap t. The shift_* fields hold
/// lap t + shift and stay zero when that lap is past the streams' end.
struct CovariateLap {
  double track_status = 0.0;
  double lap_status = 0.0;
  double leader_pit_count = 0.0;
  double total_pit_count = 0.0;
  double shift_lap_status = 0.0;
  double shift_track_status = 0.0;
  double shift_total_pit_count = 0.0;
};

/// Writes the config.dim() covariates of one lap into `row`, given the
/// age carry after that lap. The one place the row layout and scaling
/// live: build_covariates and the forecast-time status sampler share it.
void write_covariate_row(const CovariateLap& lap, const AgeCarry& age,
                         const CovariateConfig& config, std::span<double> row);

/// Assemble the covariate vector for every lap in [0, streams.laps()).
/// Age features are recomputed from the (possibly predicted) statuses, so
/// the same code path serves training and forecasting.
std::vector<std::vector<double>> build_covariates(const StatusStreams& streams,
                                                  const CovariateConfig& config);

/// One training window: laps [begin, begin + enc + dec) of one car.
struct SeqExample {
  std::vector<std::vector<double>> covariates;  // enc+dec rows of dim()
  std::vector<double> target;                   // observed rank, enc+dec
  int car_index = 0;   // dense per-event car index for the embedding
  double weight = 1.0; // Fig. 7 step 1: upweight windows with rank changes
};

struct WindowConfig {
  int encoder_length = 60;
  int decoder_length = 2;
  int stride = 1;              // training windows start every `stride` laps
  double change_weight = 9.0;  // loss weight when the decoder has a change
  CovariateConfig covariates;
};

/// Maps raw car ids to dense embedding indices; unseen cars map to a
/// shared "unknown" slot so models generalize to new entry lists.
class CarVocab {
 public:
  CarVocab() = default;
  explicit CarVocab(const std::vector<telemetry::RaceLog>& races);

  /// Dense index for a car id (last slot = unknown).
  int index(int car_id) const;
  /// Total embedding rows (known cars + 1 unknown slot).
  int size() const;

  const std::vector<int>& ids() const { return ids_; }

 private:
  std::vector<int> ids_;  // sorted known ids
};

/// All training windows from a set of races.
std::vector<SeqExample> build_windows(
    const std::vector<telemetry::RaceLog>& races, const CarVocab& vocab,
    const WindowConfig& config);

}  // namespace ranknet::features
