// Versioned model registry with atomic hot-swap, shadow-gate promotion and
// automatic rollback — the serving front end's answer to "replace the model
// without dropping a request".
//
// Lifecycle of a swap (staged-commit, extending the PR-2 artifact loader):
//   1. stage    — the ModelFactory loads the candidate artifact off the
//                 serving path; a bad checksum / truncation / bit flip fails
//                 here and the active model is never touched.
//   2. gate     — the candidate shadow-forecasts a probe race and must keep
//                 its prediction-failure rate (nonfinite or implausible
//                 medians) under the configured bound; optionally its probe
//                 latency must stay within a factor of the active model's.
//   3. publish  — one shared_ptr store under a mutex. In-flight requests
//                 holding the previous ServingModel keep draining on it
//                 (refcount draining: the old engine is destroyed only when
//                 the last in-flight reference drops); new requests see the
//                 candidate.
//   4. probation— the first N serving results of a fresh version are
//                 watched; a failure auto-rolls back to the previous
//                 version. Rollback is the same atomic publish in reverse.
//
// Every transition is booked into the obs registry ("serve.registry.*"),
// which is how the soak test proves >=1 promotion and >=1 rollback happened
// under load.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/baselines.hpp"
#include "core/fleet_engine.hpp"
#include "core/forecast_cache.hpp"
#include "core/parallel_engine.hpp"
#include "serve/wire.hpp"
#include "telemetry/race_log.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace ranknet::serve {

/// Builds a forecaster from an artifact path. Must fail with Status (not
/// throw) on corrupt artifacts — nn::try_load_params is the intended base.
using ModelFactory =
    std::function<util::Result<std::shared_ptr<core::RaceForecaster>>(
        const std::string& artifact_path)>;

/// One published model generation: a race-sharded fleet of engines serving
/// per-shard forecaster instances built from one artifact. Immutable after
/// publish except for the engines' internal stats; the server takes a
/// shared_ptr per batch and the refcount is the drain.
struct ServingModel {
  std::uint64_t version = 0;
  std::string artifact_path;
  /// Shard-0 forecaster instance — the shadow gate's probe target (every
  /// shard's instance has identical weights, loaded from one artifact).
  std::shared_ptr<core::RaceForecaster> forecaster;
  /// The serving fleet: requests route to shards by race id.
  std::shared_ptr<core::FleetEngine> fleet;
  /// Shard-0 engine, kept for single-engine consumers (probes, tests).
  std::shared_ptr<core::ParallelForecastEngine> engine;
};

struct GateConfig {
  /// Max fraction of probe medians allowed to be nonfinite or outside
  /// [min_rank, max_rank]. 0 = every prediction must be plausible.
  double max_prediction_failure_rate = 0.0;
  double min_rank = 0.0;
  double max_rank = 200.0;
  /// Candidate probe latency must stay within this factor of the active
  /// model's probe latency. 0 disables the latency gate (the default: on a
  /// noisy box wall-clock gates flap; the failure-rate gate is the primary
  /// one).
  double max_latency_factor = 0.0;
  /// Probe forecast shape.
  int probe_origin_lap = 50;
  int probe_horizon = 10;
  int probe_num_samples = 8;
  std::uint64_t probe_seed = 0x5eed;
};

struct RegistryConfig {
  /// Race shards per generation; each shard gets its own forecaster
  /// instance (loaded from the same artifact), engine pool and driver
  /// thread. 1 = the pre-fleet single-engine layout.
  std::size_t shards = 1;
  std::size_t engine_threads = 0;  // 0 = inline (sequential mode), per shard
  std::size_t max_cars_per_task = 4;
  GateConfig gate;
  /// Serving results watched after a promotion; a failure inside the
  /// window triggers auto-rollback. 0 disables probation.
  std::uint64_t probation_requests = 64;
  /// Time bound on the same probation window (seconds since publish); once
  /// it elapses the version is trusted even if fewer than
  /// probation_requests results arrived — a low-traffic deployment must not
  /// stay on probation forever. 0 = request-count only. Measured by the
  /// registry's clock (see set_clock), so tests script it.
  double probation_seconds = 0.0;
};

class ModelRegistry {
 public:
  ModelRegistry(ModelFactory factory, RegistryConfig config);

  /// Probe race for the shadow gate; without one the gate is skipped
  /// (stage + checksum still apply).
  void set_probe_race(telemetry::RaceLog race);
  /// Forecast cache shared by every generation's engine (version-keyed, so
  /// generations never collide).
  void set_forecast_cache(std::shared_ptr<core::ForecastCache> cache);
  /// Degradation deadline armed on every generation's engine (seconds;
  /// 0 = none). The server overrides per request.
  void set_engine_deadline(double seconds);
  /// Time source for the latency gate and the probation time window.
  /// Defaults to the steady clock; tests inject a scripted clock so gate
  /// decisions and probation expiry are deterministic. Pre-injection the
  /// gate timed probes with util::Timer directly, which made the latency
  /// gate untestable (and flaky if forced): wall time on a loaded CI box is
  /// not a function of the candidate.
  void set_clock(util::ClockFn clock);

  /// Load and publish the first model, gate included (no previous model
  /// means no rollback target — a failed init leaves the registry empty).
  util::Status init(const std::string& artifact_path);

  struct SwapOutcome {
    wire::SwapAction action = wire::SwapAction::kRejected;
    std::uint64_t active_version = 0;
    util::Status status;  // why, when not promoted
  };
  /// Stage + gate + publish one candidate. Never disturbs the active model
  /// on failure.
  SwapOutcome swap(const std::string& artifact_path);

  /// Revert to the previous generation (no-op Status error when there is
  /// none). Also what probation failure calls.
  SwapOutcome rollback(const std::string& reason);

  /// Serving feedback: `ok` = the response was healthy (finite, in-range).
  /// Returns true when this result tripped a probation rollback.
  bool record_serving_result(std::uint64_t version, bool ok);

  /// Current generation (nullptr before a successful init). The returned
  /// shared_ptr is the drain token: hold it across the whole request.
  /// Never waits on a candidate build: the server's io thread calls this
  /// on every request (its cache rung) while a swap may be loading and
  /// gating a candidate under the registry mutex.
  std::shared_ptr<const ServingModel> active() const;
  std::uint64_t active_version() const;

  /// Shared fallback (CurRank) every engine's degradation policy uses; the
  /// server also serves overload-tier requests from it directly.
  const std::shared_ptr<core::CurRankForecaster>& fallback() const {
    return fallback_;
  }

 private:
  /// stage+gate: build a candidate ServingModel, or say why not.
  util::Result<std::shared_ptr<ServingModel>> build_candidate(
      const std::string& artifact_path, std::uint64_t version);
  void publish(std::shared_ptr<const ServingModel> model);

  ModelFactory factory_;
  RegistryConfig config_;
  std::shared_ptr<core::ForecastCache> cache_;
  std::shared_ptr<core::CurRankForecaster> fallback_;
  double engine_deadline_seconds_ = 0.0;
  std::optional<telemetry::RaceLog> probe_race_;

  mutable std::mutex mutex_;
  /// Guards only the active_ pointer: writers (publish, rollback) hold
  /// mutex_ and then this; active()/active_version() take only this.
  mutable std::mutex active_mutex_;
  std::shared_ptr<const ServingModel> active_;
  std::shared_ptr<const ServingModel> previous_;  // rollback target
  std::uint64_t next_version_ = 1;
  std::uint64_t probation_remaining_ = 0;
  double probation_deadline_ = 0.0;    // clock time; 0 = no time bound
  double active_probe_seconds_ = 0.0;  // latency-gate reference
  util::ClockFn clock_ = util::steady_clock_fn();

  // serve.registry.* handles, resolved once.
  obs::Counter* swaps_attempted_;
  obs::Counter* promoted_;
  obs::Counter* rejected_stage_;
  obs::Counter* rejected_gate_;
  obs::Counter* rolled_back_;
  obs::Gauge* active_version_gauge_;
};

}  // namespace ranknet::serve
