// In-memory span log for the benchmark's traced run, plus the forecaster
// decorator that records spans around the RankNet layer calls the fleet
// makes (prepare, forecast_partition). Nothing here touches the library:
// the decorator implements the same two interfaces the engine fans out
// over and forwards every call, so output bytes are unchanged.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/forecaster.hpp"
#include "core/ranknet.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call. Spans of one request share (race, origin, base): the
/// serving path derives the decode's rng base from the request seed, so a
/// client request span and the decode spans it caused carry the same key.
struct Span {
  std::string name;
  int thread = 0;
  double start = 0.0;
  double end = 0.0;
  std::string race;
  int origin = 0;
  std::uint64_t base = 0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void add(Span span) {
    span.thread = thread_index();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(spans_, {});
  }

 private:
  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Forwards to a RankNetForecaster and, while the log is enabled, records
/// "ranknet.prepare" and "ranknet.decode" spans on the calling thread.
class TracingForecaster : public ranknet::core::RaceForecaster,
                          public ranknet::core::PartitionableForecaster {
 public:
  TracingForecaster(std::shared_ptr<ranknet::core::RankNetForecaster> inner,
                    std::shared_ptr<SpanLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  std::string name() const override { return inner_->name(); }

  ranknet::core::RaceSamples forecast(const ranknet::telemetry::RaceLog& race,
                                      int origin_lap, int horizon,
                                      int num_samples,
                                      ranknet::util::Rng& rng) override {
    return inner_->forecast(race, origin_lap, horizon, num_samples, rng);
  }

  void prepare(const ranknet::telemetry::RaceLog& race) override {
    const double t0 = log_->enabled() ? now_s() : 0.0;
    inner_->prepare(race);
    if (t0 > 0.0) log_->add({"ranknet.prepare", 0, t0, now_s(), race.id(), 0, 0});
  }

  std::vector<int> forecast_cars(const ranknet::telemetry::RaceLog& race,
                                 int origin_lap) override {
    return inner_->forecast_cars(race, origin_lap);
  }

  ranknet::core::RaceSamples forecast_partition(
      const ranknet::telemetry::RaceLog& race, int origin_lap, int horizon,
      int num_samples, std::uint64_t base, std::span<const int> cars) override {
    const double t0 = log_->enabled() ? now_s() : 0.0;
    auto out = inner_->forecast_partition(race, origin_lap, horizon,
                                          num_samples, base, cars);
    if (t0 > 0.0) {
      log_->add({"ranknet.decode", 0, t0, now_s(), race.id(), origin_lap, base});
    }
    return out;
  }

 private:
  std::shared_ptr<ranknet::core::RankNetForecaster> inner_;
  std::shared_ptr<SpanLog> log_;
};

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
inline double covered(std::vector<std::pair<double, double>> iv, double lo,
                      double hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

}  // namespace perfbench
