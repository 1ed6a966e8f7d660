// RankNet: the paper's proposed forecaster (Fig. 5a) and its variants.
//
// Forecasting follows Algorithm 2 at race level:
//  1. future race status is obtained per variant —
//       Oracle    : ground-truth future TrackStatus/LapStatus (upper bound),
//       PitModel  : LapStatus sampled from the probabilistic MLP PitModel
//                   per sample realization, TrackStatus assumed green,
//       Joint     : no covariates; status dims are part of the sampled
//                   multivariate target,
//  2. the RankModel (stacked-LSTM, Gaussian output) rolls forward by
//     ancestral sampling, feeding each sampled rank back as the next lag,
//  3. per-sample sorting across cars converts values to rank positions.
//
// DeepAR is the same machinery with zero covariates (paper Table III).
//
// Per-race LSTM state traces are cached so that evaluating hundreds of
// forecast origins per race costs one encoder pass over the race instead of
// one per origin.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ar_model.hpp"
#include "core/forecaster.hpp"
#include "core/pit_model.hpp"
#include "core/transformer_model.hpp"
#include "features/window.hpp"

namespace ranknet::core {

enum class StatusSource { kOracle, kPitModel, kJoint };

const char* status_source_name(StatusSource s);

/// MC decode strategy (DESIGN.md "Decode tree & forecast cache").
///  kIndependent — every (car, sample) row rolls through the whole decode
///                 at full row width (the historical path).
///  kTree        — rows with byte-identical prefix inputs share the
///                 encoder-tail replay and the first decode step at branch
///                 width, forking at their first noise draw. Bit-identical
///                 to kIndependent by construction (proved differentially
///                 in tests/test_decode_tree.cpp), strictly less work.
enum class DecodeMode { kIndependent, kTree };

/// Process default: kTree, overridable via RANKNET_DECODE=independent|tree
/// (read once at first call — same pattern as RANKNET_KERNEL).
DecodeMode default_decode_mode();

class RankNetForecaster : public RaceForecaster,
                          public PartitionableForecaster {
 public:
  RankNetForecaster(std::shared_ptr<const LstmSeqModel> model,
                    std::shared_ptr<const PitModel> pit_model,
                    features::CarVocab vocab,
                    features::CovariateConfig cov_config, StatusSource source,
                    std::string name);

  std::string name() const override { return name_; }

  /// Equivalent to forecast_partition over the full forecast_cars set with
  /// base = rng() — see the PartitionableForecaster contract.
  RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                       int horizon, int num_samples, util::Rng& rng) override;

  // PartitionableForecaster -------------------------------------------
  void prepare(const telemetry::RaceLog& race) override;
  std::vector<int> forecast_cars(const telemetry::RaceLog& race,
                                 int origin_lap) override;
  /// Child streams: per-row noise from Rng::stream(base, car_id, sample+1);
  /// kPitModel's coupled status realization for sample s from
  /// Rng::stream(base, s, 0), always over the full active car set so the
  /// realization is the same in every partition.
  RaceSamples forecast_partition(const telemetry::RaceLog& race,
                                 int origin_lap, int horizon, int num_samples,
                                 std::uint64_t base,
                                 std::span<const int> cars) override;

  /// Drop cached traces (e.g. between races to bound memory).
  void clear_cache() { cache_.clear(); }

  /// Decode strategy; defaults to default_decode_mode(). The differential
  /// tests flip this to prove kTree bit-identical to kIndependent.
  void set_decode_mode(DecodeMode mode) { decode_mode_ = mode; }
  DecodeMode decode_mode() const { return decode_mode_; }

 private:
  struct CarCache {
    std::vector<double> history;  // observed ranks
    features::StatusStreams streams;
    std::vector<std::vector<double>> covariates;
    std::size_t row = 0;  // this car's row in RaceCache::trace
  };
  struct RaceCache {
    std::map<int, CarCache> cars;
    /// The race's LSTM trace, one row per cached car (LstmSeqModel::trace
    /// over all of them at once): trace[t] is the state that predicts lap
    /// t + 2. A car's rows are valid for t < its laps - 1.
    std::vector<LstmSeqModel::StackState> trace;
    /// (car id, laps) of every car of the race the traces were built from.
    std::vector<std::pair<int, std::size_t>> shape;
  };

  /// Cached traces for `race`, keyed on race.id(). Every lookup compares
  /// the entry's per-car lap counts with `race` (O(cars)), so a race
  /// re-sent under the same id with more laps (a live feed growing)
  /// rebuilds its traces instead of serving the old ones. A replacement
  /// with identical lap counts but different content is not detected; it
  /// needs a new id or clear_cache().
  const RaceCache& race_cache(const telemetry::RaceLog& race);
  /// Read-only lookup (no insertion) — the thread-safe path used by
  /// forecast_partition after prepare() has warmed the cache. Null when
  /// the entry is missing or stale.
  const RaceCache* find_cache(const telemetry::RaceLog& race) const;

  std::shared_ptr<const LstmSeqModel> model_;
  std::shared_ptr<const PitModel> pit_model_;  // only for kPitModel
  features::CarVocab vocab_;
  features::CovariateConfig cov_config_;
  StatusSource source_;
  std::string name_;
  DecodeMode decode_mode_ = default_decode_mode();
  std::map<std::string, RaceCache> cache_;
};

/// Transformer-based RankNet (paper Section IV-I): same Algorithm-2
/// pipeline, attention stack instead of the LSTM. Supports the Oracle and
/// PitModel status sources.
class TransformerForecaster : public RaceForecaster {
 public:
  TransformerForecaster(std::shared_ptr<const TransformerSeqModel> model,
                        std::shared_ptr<const PitModel> pit_model,
                        features::CarVocab vocab,
                        features::CovariateConfig cov_config,
                        StatusSource source, std::string name);

  std::string name() const override { return name_; }

  RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                       int horizon, int num_samples, util::Rng& rng) override;

 private:
  struct CarCache {
    std::vector<double> history;
    features::StatusStreams streams;
    std::vector<std::vector<double>> covariates;
  };
  struct RaceCache {
    std::map<int, CarCache> cars;
    std::vector<std::pair<int, std::size_t>> shape;
  };
  /// Same staleness rule as RankNetForecaster::race_cache.
  const RaceCache& race_cache(const telemetry::RaceLog& race);

  std::shared_ptr<const TransformerSeqModel> model_;
  std::shared_ptr<const PitModel> pit_model_;
  features::CarVocab vocab_;
  features::CovariateConfig cov_config_;
  StatusSource source_;
  std::string name_;
  std::map<std::string, RaceCache> cache_;
};

}  // namespace ranknet::core
