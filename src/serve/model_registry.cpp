#include "serve/model_registry.hpp"

#include <cmath>
#include <utility>

#include "obs/metrics.hpp"

namespace ranknet::serve {

using util::Result;
using util::Status;

namespace {

/// Probe-forecast health: fraction of medians that are nonfinite or outside
/// the plausible rank band. The gate's primary signal — a zeroed, truncated
/// or wild-coefficient artifact fails this even when its checksum was
/// regenerated honestly.
double prediction_failure_rate(const core::RaceSamples& samples,
                               const GateConfig& gate) {
  std::size_t total = 0, bad = 0;
  for (const auto& [car_id, m] : samples) {
    const auto median = core::median_trajectory(m);
    for (double v : median) {
      ++total;
      if (!std::isfinite(v) || v < gate.min_rank || v > gate.max_rank) ++bad;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(bad) /
                            static_cast<double>(total);
}

}  // namespace

ModelRegistry::ModelRegistry(ModelFactory factory, RegistryConfig config)
    : factory_(std::move(factory)),
      config_(config),
      fallback_(std::make_shared<core::CurRankForecaster>()) {
  auto& reg = obs::Registry::instance();
  swaps_attempted_ = &reg.counter("serve.registry.swaps_attempted");
  promoted_ = &reg.counter("serve.registry.promoted");
  rejected_stage_ = &reg.counter("serve.registry.rejected_stage");
  rejected_gate_ = &reg.counter("serve.registry.rejected_gate");
  rolled_back_ = &reg.counter("serve.registry.rolled_back");
  active_version_gauge_ = &reg.gauge("serve.registry.active_version");
}

void ModelRegistry::set_probe_race(telemetry::RaceLog race) {
  probe_race_ = std::move(race);
}

void ModelRegistry::set_forecast_cache(
    std::shared_ptr<core::ForecastCache> cache) {
  cache_ = std::move(cache);
}

void ModelRegistry::set_engine_deadline(double seconds) {
  engine_deadline_seconds_ = seconds;
}

void ModelRegistry::set_clock(util::ClockFn clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

Result<std::shared_ptr<ServingModel>> ModelRegistry::build_candidate(
    const std::string& artifact_path, std::uint64_t version) {
  // Stage: load off the serving path. Checksum/truncation/bit-flip failures
  // surface here as Status and the active model is never touched.
  auto loaded = factory_(artifact_path);
  if (!loaded.ok()) {
    rejected_stage_->add(1);
    return loaded.status();
  }

  auto model = std::make_shared<ServingModel>();
  model->version = version;
  model->artifact_path = artifact_path;

  // Fleet factory: shard 0 reuses the forecaster staged above; later
  // shards re-load the same validated artifact so every shard serves an
  // independent instance of identical weights (prepare() caches never
  // cross shards). A load that fails after the first succeeded is a
  // genuine stage failure (e.g. the file changed underneath us) and
  // rejects the candidate.
  auto first = std::move(loaded).value();
  auto used_first = std::make_shared<bool>(false);
  core::FleetConfig fleet_cfg;
  fleet_cfg.shards = config_.shards == 0 ? 1 : config_.shards;
  fleet_cfg.shard.engine_threads = config_.engine_threads;
  fleet_cfg.shard.max_cars_per_task = config_.max_cars_per_task;
  fleet_cfg.shared_cache = cache_;  // version-keyed cross-generation dedup
  try {
    model->fleet = std::make_shared<core::FleetEngine>(
        [factory = factory_, path = artifact_path, first, used_first]()
            -> std::shared_ptr<core::RaceForecaster> {
          if (!*used_first) {
            *used_first = true;
            return first;
          }
          auto re = factory(path);
          if (!re.ok()) {
            throw std::runtime_error(re.status().message());
          }
          return std::move(re).value();
        },
        fleet_cfg);
  } catch (const std::exception& e) {
    rejected_stage_->add(1);
    return Status::corrupt_data(
        std::string("registry: shard artifact reload failed: ") + e.what());
  }
  model->fleet->set_model_version(version);
  model->forecaster = model->fleet->shard(0)->forecaster();
  model->engine = model->fleet->shard(0)->engine();
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.deadline_seconds = engine_deadline_seconds_;
  policy.fallback = fallback_;
  if (auto st = model->fleet->set_degradation_policy(std::move(policy));
      !st.ok()) {
    rejected_stage_->add(1);
    return st;
  }

  // Gate: shadow-forecast the probe race and judge the output before any
  // real request can see this version.
  if (probe_race_) {
    const auto& gate = config_.gate;
    util::Rng rng(gate.probe_seed);
    const double probe_t0 = clock_();
    core::RaceSamples probe;
    try {
      probe = model->forecaster->forecast(*probe_race_, gate.probe_origin_lap,
                                          gate.probe_horizon,
                                          gate.probe_num_samples, rng);
    } catch (const std::exception& e) {
      rejected_gate_->add(1);
      return Status::failed_precondition(
          std::string("shadow gate: candidate threw on probe race: ") +
          e.what());
    }
    const double probe_seconds = clock_() - probe_t0;
    const double failure_rate = prediction_failure_rate(probe, gate);
    if (failure_rate > gate.max_prediction_failure_rate) {
      rejected_gate_->add(1);
      return Status::failed_precondition(
          "shadow gate: prediction failure rate " +
          std::to_string(failure_rate) + " exceeds bound " +
          std::to_string(gate.max_prediction_failure_rate));
    }
    if (gate.max_latency_factor > 0.0 && active_probe_seconds_ > 0.0 &&
        probe_seconds > gate.max_latency_factor * active_probe_seconds_) {
      rejected_gate_->add(1);
      return Status::failed_precondition(
          "shadow gate: probe latency " + std::to_string(probe_seconds) +
          "s exceeds " + std::to_string(gate.max_latency_factor) +
          "x active (" + std::to_string(active_probe_seconds_) + "s)");
    }
    active_probe_seconds_ = probe_seconds;
  }
  return model;
}

void ModelRegistry::publish(std::shared_ptr<const ServingModel> model) {
  // The atomic hot-swap: one pointer store under the mutex. Readers that
  // already copied the old shared_ptr keep draining on the old engine.
  {
    std::lock_guard<std::mutex> pointer_lock(active_mutex_);
    previous_ = std::move(active_);
    active_ = std::move(model);
  }
  probation_remaining_ = config_.probation_requests;
  probation_deadline_ = config_.probation_seconds > 0.0
                            ? clock_() + config_.probation_seconds
                            : 0.0;
  active_version_gauge_->set(static_cast<double>(active_->version));
}

Status ModelRegistry::init(const std::string& artifact_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  swaps_attempted_->add(1);
  auto candidate = build_candidate(artifact_path, next_version_);
  if (!candidate.ok()) return candidate.status();
  ++next_version_;
  publish(std::move(candidate).value());
  previous_ = nullptr;  // nothing to roll back to before the first swap
  promoted_->add(1);
  return {};
}

ModelRegistry::SwapOutcome ModelRegistry::swap(
    const std::string& artifact_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  swaps_attempted_->add(1);
  SwapOutcome out;
  out.active_version = active_ ? active_->version : 0;
  if (!active_) {
    out.status = Status::failed_precondition(
        "registry: swap before a successful init");
    return out;
  }
  auto candidate = build_candidate(artifact_path, next_version_);
  if (!candidate.ok()) {
    out.action = wire::SwapAction::kRejected;
    out.status = candidate.status();
    return out;
  }
  ++next_version_;
  publish(std::move(candidate).value());
  promoted_->add(1);
  out.action = wire::SwapAction::kPromoted;
  out.active_version = active_->version;
  return out;
}

ModelRegistry::SwapOutcome ModelRegistry::rollback(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  SwapOutcome out;
  out.active_version = active_ ? active_->version : 0;
  if (!previous_) {
    out.status = Status::failed_precondition(
        "registry: no previous version to roll back to (" + reason + ")");
    return out;
  }
  {
    std::lock_guard<std::mutex> pointer_lock(active_mutex_);
    active_ = std::move(previous_);
  }
  previous_ = nullptr;        // one level of undo, not a history
  probation_remaining_ = 0;   // the restored version already served cleanly
  probation_deadline_ = 0.0;
  active_version_gauge_->set(static_cast<double>(active_->version));
  rolled_back_->add(1);
  out.action = wire::SwapAction::kRolledBack;
  out.active_version = active_->version;
  out.status = Status::unavailable("registry: rolled back: " + reason);
  return out;
}

bool ModelRegistry::record_serving_result(std::uint64_t version, bool ok) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!active_ || version != active_->version ||
        probation_remaining_ == 0) {
      return false;  // stale generation or out of probation — not our call
    }
    // Time-bounded probation: once the window elapses the version is
    // trusted, regardless of how few results trickled in.
    if (probation_deadline_ > 0.0 && clock_() >= probation_deadline_) {
      probation_remaining_ = 0;
      probation_deadline_ = 0.0;
      return false;
    }
    --probation_remaining_;
    if (ok) return false;
    if (!previous_) return false;  // nothing to fall back to
  }
  // Re-acquires the lock inside; safe because probation_remaining_ was
  // already consumed, so a racing call cannot double-trigger.
  return rollback("probation failure on v" + std::to_string(version)).action ==
         wire::SwapAction::kRolledBack;
}

std::shared_ptr<const ServingModel> ModelRegistry::active() const {
  std::lock_guard<std::mutex> lock(active_mutex_);
  return active_;
}

std::uint64_t ModelRegistry::active_version() const {
  std::lock_guard<std::mutex> lock(active_mutex_);
  return active_ ? active_->version : 0;
}

}  // namespace ranknet::serve
