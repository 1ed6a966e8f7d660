// Forecast-stack benchmark: RankNet-MLP (PitModel status sampling + LSTM
// RankModel) driven end to end through the real core::FleetEngine and the
// real serve::ForecastServer / ForecastClient.
//
//   perfbench --workload <season_replay|serve_unique|serve_hot> --seed <n>
//             --seconds <s> --trace <0|1> --artifacts <dir> --run-dir <dir>
//
// Every input is generated from --seed; the program under test only sees
// the generated races and requests. --artifacts must be a temporary copy of
// the committed artifacts/ directory: the run fails if loading the model
// would train (a file appears there) instead of loading read-only weights.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones. README.md says what each one means.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/device_model.hpp"
#include "core/fleet_engine.hpp"
#include "core/forecast_cache.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "simulator/race_sim.hpp"
#include "simulator/season.hpp"
#include "simulator/track.hpp"
#include "tensor/opcount.hpp"
#include "tensor/workspace.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ranknet;
using perfbench::now_s;
using perfbench::Span;
using perfbench::SpanLog;
namespace wire = serve::wire;
using RacePtr = std::shared_ptr<const telemetry::RaceLog>;

/// Thrown for a run that must not report: bad inputs, a model that would
/// train, a generator that fell behind. main() prints it and exits 2.
struct InvalidRun : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- workloads -------------------------------------------------------------

enum class Kind { kSeason, kServeUnique, kServeHot };

/// One workload. Years sit outside the 2013-2019 training seasons, so no
/// race was seen in training, and they differ per race so every race has
/// its own id() (router and RankNet trace cache both key on it).
struct Workload {
  const char* name;
  Kind kind;
  int first_year;
  int races;
  int horizon;
  int samples;
  double rate;          // open-loop offered rate, requests/s (serve only)
  double limit_ms;      // latency limit; also each request's deadline_us
  double closed_share;  // share of the run in the closed-loop phase
};

constexpr Workload kWorkloads[] = {
    // Analyst backtest: a closed batch, one run_season call per repetition
    // on a fresh fleet, so every race pays its encoder trace (prepare).
    {"season_replay", Kind::kSeason, 2020, 16, 10, 32, 0.0, 30000.0, 0.0},
    // Independent users: unique (race, origin, seed) per request, so the
    // forecast cache misses, inserts and evicts on every request. A closed
    // loop on nproc connections then measures capacity. Not in
    // BENCHMARK.json: its times follow the host's single-core speed.
    {"serve_unique", Kind::kServeUnique, 2040, 8, 2, 32, 12.0, 500.0, 0.4},
    // Broadcast viewers: 10x the rate, nearly all on the newest lap of a
    // few live races with the shared app seed (cache + dedup path).
    {"serve_hot", Kind::kServeHot, 2060, 4, 2, 32, 120.0, 500.0, 0.0},
};

constexpr int kOriginStride = 20;  // season jobs: one every N laps
constexpr int kSweepStride = 10;   // serving accuracy sweep: every N laps
constexpr int kCacheCapacity = 16;       // serving forecast cache entries
constexpr int kSetupRepeats = 9;         // setup_s = median of these
// A closed loop of synchronous clients keeps one batching pattern for as
// long as it runs, so serve_unique restarts both phases this many times.
constexpr int kServeRounds = 8;
constexpr double kDrainGrace = 2.0;      // s after the schedule to finish sends
// A live race's newest lap advances every kHotTickSeconds (an Indy 500 lap
// takes ~40 s), staggered across the live races.
constexpr double kHotTickSeconds = 20.0;
constexpr int kHotFirstOrigin = 100;
constexpr double kHotNewestShare = 0.95;
constexpr std::uint64_t kHotAppSeed = 0xa995eedULL;
constexpr std::uint32_t kMaxDeadlineUs = 2000000;  // the server's ceiling
constexpr std::size_t kClosedKept = 64;  // closed-loop bodies kept per connection
constexpr int kCheckSample = 16;    // responses/jobs recomputed byte for byte
constexpr double kMaxLagMs = 20.0;  // generator lag p99 beyond this = invalid
constexpr double kModelLoadTimeout = 60.0;
constexpr double kRankClamp = 45.0;  // the rank model's sample feedback clamp
// Engines run inline (engine_threads = 0, the registry default), so each
// forecast is one task over the whole field: smaller tasks buy no fan-out
// and each re-draws the PitModel status realization over the full field.
constexpr std::size_t kCarsPerTask = 64;

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string artifacts;
  std::string run_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--artifacts") a.artifacts = val;
    else if (key == "--run-dir") a.run_dir = val;
    else throw InvalidRun("unknown argument " + key);
  }
  for (const auto& w : kWorkloads) {
    if (workload == w.name) a.workload = &w;
  }
  if (a.workload == nullptr) throw InvalidRun("unknown workload '" + workload + "'");
  if (!(a.seconds > 0.0)) throw InvalidRun("--seconds must be positive");
  if (a.artifacts.empty() || a.run_dir.empty()) {
    throw InvalidRun("--artifacts and --run-dir are required");
  }
  return a;
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A /proc/self/status memory field ("VmHWM", "VmRSS") in MB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

/// Returns freed heap pages to the OS and resets VmHWM to the current RSS
/// (clear_refs "5"), so VmHWM afterwards is the peak of the work that
/// follows. Returns the RSS it starts from, in MB.
double reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mb("VmRSS");
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

struct Outcome {
  bool correct = true;
  double peak_rss_mb = 0.0;  // VmHWM when the measured phases end
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

// --- inputs ------------------------------------------------------------------

std::vector<RacePtr> make_races(const Workload& w, std::uint64_t seed) {
  std::vector<RacePtr> races;
  for (int i = 0; i < w.races; ++i) {
    sim::RaceParams p;
    p.track = sim::indy500_track();
    p.year = w.first_year + i;
    p.seed = util::Rng::stream(seed, 0x7ace, static_cast<std::uint64_t>(i))();
    races.push_back(std::make_shared<const telemetry::RaceLog>(
        sim::RaceSimulator(p).run()));
  }
  std::set<std::string> ids;
  for (const auto& r : races) {
    if (!ids.insert(r->id()).second) {
      throw InvalidRun("two races share id " + r->id() +
                       ": routing and the RankNet trace cache key on it");
    }
  }
  return races;
}

// --- models ------------------------------------------------------------------

struct Models {
  std::shared_ptr<core::LstmSeqModel> rank;
  std::shared_ptr<core::PitModel> pit;
  features::CarVocab vocab;
  features::CovariateConfig cov;
};

std::set<std::string> list_files(const std::string& dir) {
  std::set<std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    out.insert(e.path().string());
  }
  return out;
}

/// Loads the RankNet-MLP weights from `dir` (a temporary copy of artifacts/).
/// Training instead of loading is a failed setup: a watchdog ends the
/// process if loading runs long, and any file that appears in `dir` fails
/// the run.
Models load_models(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) throw InvalidRun("no artifacts at " + dir);
  const auto before = list_files(dir);
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(m);
    if (!cv.wait_for(lock, std::chrono::duration<double>(kModelLoadTimeout),
                     [&] { return done; })) {
      std::fprintf(stderr, "perfbench: model load exceeded %.0fs; the "
                   "artifacts do not match and the zoo is training\n",
                   kModelLoadTimeout);
      std::_Exit(2);
    }
  });
  auto stop_watchdog = [&] {
    {
      std::lock_guard<std::mutex> lock(m);
      done = true;
    }
    cv.notify_all();
    watchdog.join();
  };
  Models out;
  try {
    const auto ds = sim::build_event_dataset("Indy500");
    core::ZooConfig zc;
    zc.artifacts_dir = dir;
    core::ModelZoo zoo(zc);
    auto bundle = zoo.rank_model(ds);
    out.rank = bundle.model;
    out.vocab = bundle.vocab;
    out.cov = bundle.wcfg.covariates;
    out.pit = zoo.pit_model(ds);
  } catch (...) {
    stop_watchdog();
    throw;
  }
  stop_watchdog();
  if (list_files(dir) != before) {
    throw InvalidRun("loading the model wrote into the artifacts copy: the "
                     "committed weights are stale and the zoo trained");
  }
  return out;
}

std::shared_ptr<core::RankNetForecaster> make_ranknet(
    const Models& m, core::StatusSource source = core::StatusSource::kPitModel) {
  return std::make_shared<core::RankNetForecaster>(
      m.rank, source == core::StatusSource::kPitModel ? m.pit : nullptr,
      m.vocab, m.cov, source, "RankNet-MLP");
}

/// Forecaster factory for fleets and the serving registry: plain RankNet,
/// or RankNet behind the span-recording decorator in the traced run.
core::ForecasterFactory forecaster_factory(const Models& models,
                                           std::shared_ptr<SpanLog> spans) {
  return [&models, spans]() -> std::shared_ptr<core::RaceForecaster> {
    auto inner = make_ranknet(models);
    if (!spans) return inner;
    return std::make_shared<perfbench::TracingForecaster>(inner, spans);
  };
}

// --- output checks -----------------------------------------------------------

/// The forecaster's eligible cars for every (race, origin lap), computed
/// once on a pool worker through a standalone forecaster. Read-only
/// afterwards, so client threads check responses as they arrive.
class Eligible {
 public:
  Eligible(const Models& models, const std::vector<RacePtr>& races) {
    util::ThreadPool pool(1);
    pool.submit([&] {
      for (const auto& race : races) {
        auto f = make_ranknet(models);
        f->prepare(*race);
        auto& by_origin = cars_.emplace_back();
        for (int origin = 0; origin <= race->num_laps(); ++origin) {
          by_origin.push_back(origin < 2 ? std::vector<int>{}
                                         : f->forecast_cars(*race, origin));
        }
      }
    }).get();
  }
  const std::vector<int>& at(int race, int origin) const {
    return cars_.at(static_cast<std::size_t>(race)).at(static_cast<std::size_t>(origin));
  }

 private:
  std::vector<std::vector<std::vector<int>>> cars_;
};

/// Check verdicts, accumulated per thread and merged.
struct CheckResult {
  bool ok = true;
  std::size_t checked = 0;
  std::size_t recomputed = 0;
  std::size_t medians = 0;
  std::size_t out_of_field = 0;  // above the field size, inside the clamp
  std::size_t mislabelled = 0;   // full/cached label on a partial forecast
  std::string first_failure;

  void fail(const std::string& why) {
    if (ok) first_failure = why;
    ok = false;
  }
  void merge(const CheckResult& o) {
    if (!o.ok) fail(o.first_failure);
    checked += o.checked;
    recomputed += o.recomputed;
    medians += o.medians;
    out_of_field += o.out_of_field;
    mislabelled += o.mislabelled;
  }
};

/// Coverage and range of one forecast: exactly the eligible cars, finite
/// medians inside the rank model's sampling clamp [1, 45]. Served medians
/// are raw sample medians, not rank positions, so a trailing car's can
/// exceed the field size; those are counted and reported, not failed.
bool check_cars(CheckResult& res, const std::vector<int>& eligible,
                const telemetry::RaceLog& race, const std::vector<int>& cars,
                const std::vector<const std::vector<double>*>& medians,
                const std::string& what) {
  ++res.checked;
  if (cars != eligible) {
    res.fail(what + ": car set differs from the forecaster's eligible cars");
    return false;
  }
  const double field = static_cast<double>(race.car_ids().size());
  for (const auto* med : medians) {
    for (double v : *med) {
      ++res.medians;
      if (!std::isfinite(v) || v < 1.0 || v > kRankClamp) {
        res.fail(what + ": median " + std::to_string(v) + " outside [1, 45]");
        return false;
      }
      if (v > field) ++res.out_of_field;
    }
  }
  return true;
}

/// True when a served car median is the car's current rank over the whole
/// horizon: the CurRank fallback's output. A sampled median reaches an exact
/// integer only through the feedback clamp at rank 1, so for a car not
/// currently leading this marks a deadline-fallback car.
bool currank_signature(const telemetry::RaceLog& race, int origin,
                       const wire::CarForecast& car) {
  const auto& series = race.car(car.car_id);
  const auto lap = static_cast<std::size_t>(origin);
  if (lap == 0 || series.laps() < lap) return false;
  const double current = series.rank[lap - 1];
  return std::all_of(car.median.begin(), car.median.end(),
                     [current](double v) { return v == current; });
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::uint64_t samples_digest(const core::RaceSamples& samples) {
  core::Fnv1a h;
  for (const auto& [car_id, m] : samples) {
    h.update_u64(static_cast<std::uint64_t>(car_id));
    h.update_bytes(m.data(), m.rows() * m.cols() * sizeof(double));
  }
  return h.digest();
}

/// Recomputes forecasts through a standalone single-shard fleet from the
/// same keyed base, on a pool worker as the shards compute them. It forecasts
/// every car in one partition, unlike the serving shards' four-car tasks:
/// bytes do not depend on the partition (the PartitionableForecaster
/// contract), so the byte-for-byte check also covers that.
class Reference {
 public:
  explicit Reference(const Models& models)
      : fleet_(forecaster_factory(models, nullptr), one_partition()), pool_(1) {}

  core::RaceSamples forecast(const telemetry::RaceLog& race, int origin,
                             int horizon, int samples, std::uint64_t base) {
    return pool_
        .submit([&] {
          return fleet_.forecast_keyed(race, origin, horizon, samples, base);
        })
        .get();
  }

 private:
  static core::FleetConfig one_partition() {
    core::FleetConfig cfg;
    cfg.shard.max_cars_per_task = 1024;
    return cfg;
  }

  core::FleetEngine fleet_;
  util::ThreadPool pool_;
};

void report_checks(const CheckResult& check, const char* what, Outcome& out) {
  out.correct = check.ok;
  out.notes.push_back("checks: " + std::to_string(check.checked) + " " + what +
                      " covered, " + std::to_string(check.recomputed) +
                      " recomputed byte for byte" +
                      (check.ok ? "" : " -- FAILED: " + check.first_failure));
  out.notes.push_back(std::to_string(check.out_of_field) + " of " +
                      std::to_string(check.medians) +
                      " medians exceed the field size");
  out.metrics.push_back({"quality.out_of_field_share",
                         ratio(static_cast<double>(check.out_of_field),
                               static_cast<double>(check.medians)),
                         "share", "medians above the field size"});
}

/// Mean |median - true rank| over (car, horizon lap) points, next to the
/// same error of the current-rank forecast (the CurRank baseline) on the
/// same points. Their ratio cancels most of how hard the seed's races are,
/// so it varies far less between seeds than the raw error.
struct Mae {
  double sum = 0.0;
  double currank_sum = 0.0;
  std::size_t n = 0;

  void add(const telemetry::RaceLog& race, int origin, int car_id,
           const std::vector<double>& med) {
    const auto& car = race.car(car_id);
    const double current = car.rank[static_cast<std::size_t>(origin) - 1];
    for (std::size_t k = 0; k < med.size(); ++k) {
      const std::size_t lap_idx = static_cast<std::size_t>(origin) + k;
      if (lap_idx >= car.laps()) break;
      sum += std::fabs(med[k] - car.rank[lap_idx]);
      currank_sum += std::fabs(current - car.rank[lap_idx]);
      ++n;
    }
  }
  void report(Outcome& out) const {
    const double mae = n == 0 ? 0.0 : sum / static_cast<double>(n);
    const std::string pts = "n=" + std::to_string(n) + " (car, lap) points";
    out.metrics.push_back({"rank_mae_ratio", ratio(sum, currank_sum), "x",
                           "rank MAE / CurRank MAE, " + pts});
    out.metrics.push_back({"quality.rank_mae", mae, "rank", pts});
    out.notes.push_back("rank_mae = " + std::to_string(mae) + " (" + pts + ")");
  }
};

// --- counters ----------------------------------------------------------------

/// Snapshot of the existing obs counters the per-layer metrics read.
struct Counters {
  double t = 0.0, cpu = 0.0;
  std::uint64_t requests = 0, dedup = 0, tiers[5] = {0, 0, 0, 0, 0};
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t full_cars = 0, fallback_cars = 0;
  std::uint64_t tree_rows = 0, tree_branches = 0;
  std::vector<std::uint64_t> shard_jobs;

  static Counters take() {
    auto& reg = obs::Registry::instance();
    Counters c;
    c.t = now_s();
    c.cpu = cpu_seconds();
    c.requests = reg.counter("serve.requests.received").value();
    c.dedup = reg.counter("serve.batch.dedup_hits").value();
    const char* tiers[] = {"full", "cached", "partial", "fallback", "rejected"};
    for (int i = 0; i < 5; ++i) {
      c.tiers[i] = reg.counter(std::string("serve.tier.") + tiers[i]).value();
    }
    auto& cache = core::CacheCounters::instance();
    c.hits = cache.hits();
    c.misses = cache.misses();
    c.evictions = cache.evictions();
    auto& deg = core::DegradationCounters::instance();
    c.full_cars = deg.full_cars();
    c.fallback_cars = deg.fallback_cars();
    auto& tree = core::DecodeTreeCounters::instance();
    c.tree_rows = tree.rows();
    c.tree_branches = tree.branches();
    for (std::size_t i = 0; i < nproc(); ++i) {
      c.shard_jobs.push_back(
          reg.counter("fleet.shard." + std::to_string(i) + ".jobs").value());
    }
    return c;
  }
};

void counter_metrics(const Counters& a, const Counters& b, double engine_wall,
                     double work_items, std::vector<Metric>& out) {
  const double wall = b.t - a.t;
  out.push_back({"fleet.concurrency", ratio(engine_wall, wall), "x",
                 "summed shard-engine wall / run wall"});
  std::vector<double> jobs;
  for (std::size_t i = 0; i < a.shard_jobs.size(); ++i) {
    jobs.push_back(static_cast<double>(b.shard_jobs[i] - a.shard_jobs[i]));
  }
  double sum = 0.0, mx = 0.0;
  for (double j : jobs) {
    sum += j;
    mx = std::max(mx, j);
  }
  out.push_back({"fleet.shard_imbalance",
                 ratio(mx, sum / static_cast<double>(jobs.size())), "x",
                 "max/mean fleet.shard.<i>.jobs"});
  out.push_back({"process.cpu_util",
                 ratio(b.cpu - a.cpu, wall * static_cast<double>(nproc())),
                 "share", "CPU seconds / (wall x nproc)"});
  const double full = static_cast<double>(b.full_cars - a.full_cars);
  const double fb = static_cast<double>(b.fallback_cars - a.fallback_cars);
  out.push_back({"engine.fallback_car_share", ratio(fb, full + fb), "share", ""});
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  out.push_back({"cache.hit_ratio", ratio(hits, hits + misses), "share", ""});
  out.push_back({"cache.evictions_per_request",
                 ratio(static_cast<double>(b.evictions - a.evictions), work_items),
                 "count", ""});
  out.push_back({"decode_tree.rows_per_branch",
                 ratio(static_cast<double>(b.tree_rows - a.tree_rows),
                       static_cast<double>(b.tree_branches - a.tree_branches)),
                 "count", ""});
  const double received = static_cast<double>(b.requests - a.requests);
  double answered = 0.0;
  for (int i = 0; i < 5; ++i) answered += static_cast<double>(b.tiers[i] - a.tiers[i]);
  out.push_back({"serve.dedup_share",
                 ratio(static_cast<double>(b.dedup - a.dedup), received), "share", ""});
  const char* names[] = {"full", "cached", "partial", "fallback", "rejected"};
  for (int i = 0; i < 5; ++i) {
    out.push_back({std::string("serve.tier_share.") + names[i],
                   ratio(static_cast<double>(b.tiers[i] - a.tiers[i]), answered),
                   "share", ""});
  }
}

// --- span analysis -----------------------------------------------------------

/// Exclusive wall attribution inside root spans: each instant of a root goes
/// to decode if any decode span covers it, else to prepare, else to the
/// root's own layer. The three therefore add up to the traced root wall.
void self_time_metrics(const std::vector<Span>& spans, const char* root_name,
                       bool match_key, double untraced_root_ms,
                       std::vector<Metric>& out) {
  std::vector<const Span*> roots;
  std::map<std::tuple<std::string, int, std::uint64_t>, std::vector<const Span*>> by_key;
  std::vector<const Span*> children;
  for (const auto& s : spans) {
    if (s.name == root_name) {
      roots.push_back(&s);
    } else {
      children.push_back(&s);
      by_key[{s.race, s.origin, s.base}].push_back(&s);
    }
  }
  double root_total = 0.0, self_root = 0.0, self_prep = 0.0, self_dec = 0.0;
  for (const Span* r : roots) {
    std::vector<std::pair<double, double>> dec, any;
    auto take = [&](const Span* c) {
      if (c->end <= r->start || c->start >= r->end) return;
      any.emplace_back(c->start, c->end);
      if (c->name == "ranknet.decode") dec.emplace_back(c->start, c->end);
    };
    if (match_key) {
      auto it = by_key.find({r->race, r->origin, r->base});
      if (it != by_key.end()) for (const Span* c : it->second) take(c);
      // Prepare spans carry no request key; the decode they precede does.
    } else {
      for (const Span* c : children) take(c);
    }
    const double d = perfbench::covered(dec, r->start, r->end);
    const double a = perfbench::covered(any, r->start, r->end);
    root_total += r->end - r->start;
    self_dec += d;
    self_prep += a - d;
    self_root += (r->end - r->start) - a;
  }
  const double n = static_cast<double>(std::max<std::size_t>(roots.size(), 1));
  const double traced_ms = 1e3 * root_total / n;
  out.push_back({"trace.spans", static_cast<double>(spans.size()), "count", ""});
  out.push_back({"trace.root_ms", traced_ms, "ms",
                 std::string("mean traced ") + root_name + " span"});
  out.push_back({"trace.self_ms.root", 1e3 * self_root / n, "ms",
                 std::string(root_name) + " self time"});
  out.push_back({"trace.self_ms.ranknet.prepare", 1e3 * self_prep / n, "ms", ""});
  out.push_back({"trace.self_ms.ranknet.decode", 1e3 * self_dec / n, "ms", ""});
  out.push_back({"trace.untraced_root_ms", untraced_root_ms, "ms",
                 "same root, untraced pass"});
  out.push_back({"trace.overhead_share",
                 ratio(traced_ms - untraced_root_ms, untraced_root_ms), "share",
                 "self times sum to trace.root_ms"});
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const auto& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"thread\":%d,\"start\":%.9f,\"end\":%.9f,"
                 "\"race\":\"%s\",\"origin\":%d,\"key\":\"%016llx\"}\n",
                 s.name.c_str(), s.thread, s.start, s.end, s.race.c_str(),
                 s.origin, static_cast<unsigned long long>(s.base));
  }
  std::fclose(f);
}

// --- ranknet layer timings (traced run) -------------------------------------

/// Times the RankNet layer calls on a util::ThreadPool worker, as the fleet
/// shards make them (OpenMP behaves differently on the main thread), at the
/// workload's forecast shape.
void ranknet_layer_metrics(const Models& models, const std::vector<RacePtr>& races,
                           const Workload& w, std::uint64_t seed,
                           std::vector<Metric>& out) {
  constexpr int kDecodes = 12;
  util::ThreadPool pool(1);
  pool.submit([&] {
    std::vector<double> prep;
    for (std::size_t i = 0; i < std::min<std::size_t>(races.size(), 8); ++i) {
      auto f = make_ranknet(models);
      const double t0 = now_s();
      f->prepare(*races[i]);
      prep.push_back(1e3 * (now_s() - t0));
    }
    out.push_back({"ranknet.prepare_ms", median(prep), "ms", "per 200-lap race"});

    const auto& race = *races.front();
    auto pit = make_ranknet(models);
    auto oracle = make_ranknet(models, core::StatusSource::kOracle);
    pit->prepare(race);
    oracle->prepare(race);
    auto& ops = tensor::OpCounters::instance();
    const tensor::Kernel kinds[] = {tensor::Kernel::kMatMul, tensor::Kernel::kMul,
                                    tensor::Kernel::kAdd, tensor::Kernel::kSigmoid,
                                    tensor::Kernel::kTanh};
    std::vector<tensor::KernelStats> before;
    for (auto k : kinds) before.push_back(ops.stats(k));
    const auto total_before = ops.total();
    const auto ws_before = tensor::WorkspaceCounters::instance().snapshot();
    std::vector<double> pit_ms, oracle_ms;
    double pit_seconds = 0.0;
    std::uint64_t oracle_flops = 0;
    for (int i = 0; i < kDecodes; ++i) {
      const int origin = 60 + 10 * i;
      const auto base = util::Rng::stream(seed, 0xdec0de, static_cast<std::uint64_t>(i))();
      const auto cars = pit->forecast_cars(race, origin);
      double t0 = now_s();
      pit->forecast_partition(race, origin, w.horizon, w.samples, base, cars);
      const double dt = now_s() - t0;
      pit_seconds += dt;
      pit_ms.push_back(1e3 * dt);
      const auto ops_mid = ops.total().flops;
      t0 = now_s();
      oracle->forecast_partition(race, origin, w.horizon, w.samples, base, cars);
      oracle_ms.push_back(1e3 * (now_s() - t0));
      oracle_flops += ops.total().flops - ops_mid;
    }
    const auto ws_after = tensor::WorkspaceCounters::instance().snapshot();
    out.push_back({"ranknet.decode_ms", median(pit_ms), "ms",
                   "PitModel source, h=" + std::to_string(w.horizon) +
                       " S=" + std::to_string(w.samples)});
    out.push_back({"ranknet.status_ms", median(pit_ms) - median(oracle_ms), "ms",
                   "PitModel-source minus Oracle-source decode"});
    const double n = 2.0 * kDecodes;  // both sources booked into the counters
    const char* names[] = {"matmul", "mul", "add", "sigmoid", "tanh"};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
      const auto s = ops.stats(kinds[i]);
      out.push_back({std::string("kernels.") + names[i] + ".flops_per_forecast",
                     static_cast<double>(s.flops - before[i].flops) / n, "flop", ""});
      out.push_back({std::string("kernels.") + names[i] + ".bytes_per_forecast",
                     static_cast<double>(s.bytes - before[i].bytes) / n, "B",
                     "computed from tensor sizes"});
    }
    const auto total_after = ops.total();
    const double pit_flops =
        static_cast<double>(total_after.flops - total_before.flops - oracle_flops);
    out.push_back({"kernels.flops_per_forecast",
                   static_cast<double>(total_after.flops - total_before.flops) / n,
                   "flop", "all kernel classes"});
    out.push_back({"kernels.gflops", 1e-9 * ratio(pit_flops, pit_seconds), "Gflop/s",
                   "PitModel-source decode"});
    out.push_back({"workspace.allocs_per_forecast",
                   static_cast<double>(ws_after.takes - ws_before.takes) / n, "count",
                   "workspace takes"});
  }).get();
}

// --- season_replay -----------------------------------------------------------

struct SeasonRep {
  double seconds = 0.0;
  double engine_wall = 0.0;
  std::vector<core::RaceSamples> results;
};

SeasonRep season_rep(const Models& models, const std::shared_ptr<SpanLog>& spans,
                     const std::vector<core::FleetEngine::SeasonJob>& jobs,
                     std::uint64_t season_seed) {
  core::FleetConfig cfg;
  cfg.shards = nproc();
  cfg.shard.max_cars_per_task = kCarsPerTask;
  core::FleetEngine fleet(forecaster_factory(models, spans), cfg);
  SeasonRep rep;
  const double t0 = now_s();
  rep.results = fleet.run_season(jobs, season_seed);
  const double t1 = now_s();
  rep.seconds = t1 - t0;
  rep.engine_wall = fleet.stats().wall_seconds;
  if (spans && spans->enabled()) spans->add({"fleet.run_season", 0, t0, t1, "", 0, 0});
  return rep;
}

void run_season(const Args& args, const Models& models,
                const std::vector<RacePtr>& races,
                const std::shared_ptr<SpanLog>& spans, Outcome& out) {
  const Workload& w = *args.workload;
  std::vector<core::FleetEngine::SeasonJob> jobs;
  std::vector<int> job_race;
  for (std::size_t i = 0; i < races.size(); ++i) {
    for (int origin = kOriginStride; origin + w.horizon <= races[i]->num_laps();
         origin += kOriginStride) {
      jobs.push_back({races[i], origin, w.horizon, w.samples});
      job_race.push_back(static_cast<int>(i));
    }
  }
  const std::uint64_t season_seed = util::Rng::stream(args.seed, 0x5ea5)();
  const Eligible eligible(models, races);

  // Repeats run_season on fresh fleets for `seconds`, at least three calls.
  // Every call must produce the same bytes (a season is a pure function of
  // its jobs and season seed); only the last call's samples are kept.
  std::set<std::uint64_t> digests;
  auto run_reps = [&](const std::shared_ptr<SpanLog>& log, double seconds) {
    std::vector<SeasonRep> reps;
    const double end = now_s() + seconds;
    do {
      reps.push_back(season_rep(models, log, jobs, season_seed));
      core::Fnv1a h;
      for (const auto& s : reps.back().results) h.update_u64(samples_digest(s));
      digests.insert(h.digest());
      if (reps.size() > 1) reps[reps.size() - 2].results.clear();
    } while (now_s() < end || reps.size() < 3);
    return reps;
  };

  std::vector<SeasonRep> reps;
  if (!spans) {
    reps = run_reps(nullptr, args.seconds);
  } else {
    std::vector<double> untraced_walls;
    for (const auto& r : run_reps(nullptr, args.seconds / 2)) {
      untraced_walls.push_back(r.seconds);
    }
    spans->set_enabled(true);
    const auto c0 = Counters::take();
    reps = run_reps(spans, args.seconds / 2);
    const auto c1 = Counters::take();
    spans->set_enabled(false);
    double engine_wall = 0.0, rep_wall = 0.0;
    for (const auto& r : reps) {
      engine_wall += r.engine_wall;
      rep_wall += r.seconds;
    }
    // Concurrency over the run_season calls themselves, not the gaps.
    counter_metrics(c0, c1, engine_wall * (c1.t - c0.t) / rep_wall,
                    static_cast<double>(jobs.size() * reps.size()), out.metrics);
    const auto all = spans->take();
    self_time_metrics(all, "fleet.run_season", false, 1e3 * median(untraced_walls),
                      out.metrics);
    write_spans(all, args.run_dir + "/spans.jsonl");
  }
  out.peak_rss_mb = status_mb("VmHWM");
  const auto& results = reps.back().results;
  out.attempted = jobs.size() * reps.size();

  // Output checks: coverage and range on every job, and a seeded sample
  // recomputed through a standalone single-shard fleet.
  CheckResult check;
  Mae mae;
  if (digests.size() != 1) check.fail("season bytes differ between repetitions");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    std::vector<int> cars;
    std::vector<std::vector<double>> meds;
    for (const auto& [car_id, m] : results[i]) {
      cars.push_back(car_id);
      meds.push_back(core::median_trajectory(m));
      mae.add(*job.race, job.origin_lap, car_id, meds.back());
    }
    std::vector<const std::vector<double>*> med_ptrs;
    for (const auto& m : meds) med_ptrs.push_back(&m);
    check_cars(check, eligible.at(job_race[i], job.origin_lap), *job.race, cars,
               med_ptrs, "job " + std::to_string(i));
  }
  Reference ref(models);
  util::Rng pick(util::Rng::stream(args.seed, 0xc4ec)());
  for (int k = 0; k < kCheckSample; ++k) {
    const auto i = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(jobs.size()) - 1));
    const auto& job = jobs[i];
    const auto base = core::FleetEngine::job_base(
        season_seed, core::FleetEngine::race_key(job.race->id()), job.origin_lap,
        job.horizon, job.num_samples);
    const auto again =
        ref.forecast(*job.race, job.origin_lap, job.horizon, job.num_samples, base);
    ++check.recomputed;
    if (samples_digest(again) != samples_digest(results[i])) {
      check.fail("job " + std::to_string(i) + " differs from the single-shard recompute");
    }
  }
  if (!check.ok) out.failed = 1;
  report_checks(check, "jobs", out);
  out.notes.push_back("season: " + std::to_string(races.size()) + " races, " +
                      std::to_string(jobs.size()) + " jobs x " +
                      std::to_string(reps.size()) + " repetitions, " +
                      std::to_string(nproc()) + " shards");
  out.notes.push_back("failed_share = " + std::to_string(out.failed) + " / " +
                      std::to_string(out.attempted));
  mae.report(out);
  if (spans) return;

  std::vector<double> rates, ms;
  std::size_t within = 0;
  for (const auto& r : reps) {
    rates.push_back(static_cast<double>(jobs.size()) / r.seconds);
    ms.push_back(1e3 * r.seconds);
    if (1e3 * r.seconds <= w.limit_ms) ++within;
  }
  const std::string n = "n=" + std::to_string(reps.size()) + " run_season calls";
  out.metrics.push_back({"forecasts_per_s", median(rates), "1/s", "season jobs/s, " + n});
  out.metrics.push_back({"latency_p50_ms", quantile(ms, 0.5), "ms", "run_season wall, " + n});
  out.metrics.push_back({"slo_attainment",
                         static_cast<double>(within) / static_cast<double>(reps.size()),
                         "share", "calls complete within the limit"});
}

// --- serving workloads -------------------------------------------------------

struct ServeStack {
  std::shared_ptr<core::ForecastCache> cache;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ForecastServer> server;
  std::string socket;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    if (server) server->stop();
  }
};

serve::ClientConfig client_config(const std::string& socket) {
  serve::ClientConfig cc;
  cc.socket_path = socket;
  cc.recv_timeout_seconds = 10.0;
  cc.backoff.max_attempts = 2;
  return cc;
}

/// Builds the serving stack: registry (RankNet-MLP fleet with nproc shards,
/// shared forecast cache), server, preloaded races, and a warm-up that
/// traces every race on its shard and fills the forecast cache, so the
/// measured phases start with evictions already happening.
std::unique_ptr<ServeStack> build_serve(const Workload& w, const Models& models,
                                        const std::vector<RacePtr>& races,
                                        const std::string& run_dir,
                                        const std::shared_ptr<SpanLog>& spans) {
  auto stack = std::make_unique<ServeStack>();
  stack->socket = run_dir + "/serve.sock";
  stack->cache = std::make_shared<core::ForecastCache>(kCacheCapacity);
  serve::RegistryConfig rc;
  rc.shards = nproc();
  rc.max_cars_per_task = kCarsPerTask;
  rc.probation_requests = 0;
  auto factory = forecaster_factory(models, spans);
  stack->registry = std::make_unique<serve::ModelRegistry>(
      [factory](const std::string&)
          -> util::Result<std::shared_ptr<core::RaceForecaster>> {
        return factory();
      },
      rc);
  stack->registry->set_forecast_cache(stack->cache);
  if (auto st = stack->registry->init("artifacts/RankNet-MLP"); !st.ok()) {
    throw std::runtime_error("registry init: " + st.to_string());
  }
  serve::ServerConfig sc;
  sc.socket_path = stack->socket;
  stack->server = std::make_unique<serve::ForecastServer>(*stack->registry, sc);
  if (auto st = stack->server->start(); !st.ok()) {
    throw std::runtime_error("server start: " + st.to_string());
  }
  for (const auto& r : races) stack->server->add_race(*r);

  // serve_hot warms the laps just before the live ones, as a race already
  // under way would have; serve_unique warms older laps with its own seed.
  // One connection sends them in turn: concurrent warm-up clients fall into
  // the worker's micro-batches differently every time, which made one
  // setup take anywhere from 0.23 to 0.71 s within one run on a 4-core VM.
  const std::size_t per_race = std::max<std::size_t>(1, kCacheCapacity / races.size());
  const std::size_t warm = per_race * races.size();
  const int first_lap = w.kind == Kind::kServeHot
                            ? kHotFirstOrigin + 1 - static_cast<int>(per_race)
                            : 50;
  serve::ForecastClient client(client_config(stack->socket));
  if (!client.connect().ok()) throw std::runtime_error("client connect failed");
  for (std::size_t i = 0; i < warm; ++i) {
    wire::ForecastRequest req;
    req.request_id = i + 1;
    req.race_id = races[i % races.size()]->id();
    req.origin_lap = first_lap + static_cast<int>(i / races.size());
    req.horizon = w.horizon;
    req.num_samples = w.samples;
    req.seed = w.kind == Kind::kServeHot ? kHotAppSeed : 0x3a73;
    req.deadline_us = kMaxDeadlineUs;
    auto res = client.forecast(req);
    if (!res.ok() || !res.value().ok()) throw std::runtime_error("serve warm-up failed");
  }
  return stack;
}

/// One request as the generator planned it, and what came back.
struct Request {
  wire::ForecastRequest req;
  int race = 0;
  double due = 0.0;   // scheduled send (open loop), absolute
  double sent = 0.0;  // absolute
  double done = 0.0;  // absolute
  double lag = 0.0;   // generator lateness: send - max(due, connection free)
  bool sent_ok = false;
  bool transport_ok = false;
  bool good = false;  // answered at full fidelity (see finish_request)
  wire::ForecastResponse resp;
};

/// Origin of the newest lap of live race `r` at tick-clock time `t`.
int hot_origin(int r, int races, double t) {
  const double offset = kHotTickSeconds * r / races;
  return kHotFirstOrigin + static_cast<int>(std::floor((t + offset) / kHotTickSeconds));
}

/// Draws one request. `t` is the serve_hot tick clock, in seconds.
Request make_request(const Workload& w, const std::vector<RacePtr>& races,
                     util::Rng& rng, double t, std::uint64_t id) {
  Request r;
  r.race = static_cast<int>(rng.uniform_int(0, w.races - 1));
  auto& req = r.req;
  req.request_id = id;
  req.race_id = races[r.race]->id();
  req.horizon = w.horizon;
  req.num_samples = w.samples;
  req.deadline_us = static_cast<std::uint32_t>(w.limit_ms * 1e3);
  if (w.kind == Kind::kServeUnique) {
    req.origin_lap = static_cast<std::int32_t>(rng.uniform_int(60, 190));
    req.seed = rng();
  } else {
    int origin = hot_origin(r.race, w.races, t);
    if (rng.uniform() >= kHotNewestShare) {
      origin -= static_cast<int>(rng.uniform_int(1, 3));
    }
    req.origin_lap = origin;
    req.seed = kHotAppSeed;
  }
  return r;
}

/// Per-phase context shared by the client threads (read-only except the
/// span log, which locks).
struct PhaseCtx {
  const std::vector<RacePtr>& races;
  const Eligible& eligible;
  SpanLog* spans;
};

/// Sends one request and checks the answer on the calling client thread.
/// A response labelled Full or Cached must cover exactly the eligible cars
/// within the clamp; it is good unless a non-leading car carries the
/// CurRank signature. The server labels a response "cached" when the
/// process-wide cache-hit counter moved during its forecast, so a partial
/// forecast on one shard is labelled cached whenever another shard hits the
/// cache meanwhile; such responses count as partial answers.
void send(serve::ForecastClient& client, Request& r, const PhaseCtx& ctx,
          CheckResult& check) {
  r.sent_ok = true;
  auto res = client.forecast(r.req);
  r.done = now_s();
  r.transport_ok = res.ok();
  if (!res.ok()) return;
  r.resp = std::move(res).value();
  const auto& race = *ctx.races[r.race];
  if (ctx.spans != nullptr && ctx.spans->enabled()) {
    ctx.spans->add({"serve.request", 0, r.sent, r.done, race.id(), r.req.origin_lap,
                    util::Rng(r.req.seed)()});
  }
  if (!r.resp.ok() ||
      (r.resp.tier != wire::Tier::kFull && r.resp.tier != wire::Tier::kCached)) {
    return;
  }
  std::vector<int> cars;
  std::vector<const std::vector<double>*> meds;
  for (const auto& car : r.resp.cars) {
    cars.push_back(car.car_id);
    meds.push_back(&car.median);
  }
  if (!check_cars(check, ctx.eligible.at(r.race, r.req.origin_lap), race, cars, meds,
                  "request " + std::to_string(r.req.request_id))) {
    return;
  }
  // Every car is eligible here, so it has a rank at the origin lap.
  const auto lap = static_cast<std::size_t>(r.req.origin_lap);
  const bool fallback_car =
      std::any_of(r.resp.cars.begin(), r.resp.cars.end(), [&](const auto& car) {
        return race.car(car.car_id).rank[lap - 1] != 1.0 &&
               currank_signature(race, r.req.origin_lap, car);
      });
  if (fallback_car) ++check.mislabelled;
  r.good = !fallback_car;
}

/// Open loop: nproc generator threads, each owning one connection and a
/// Poisson schedule at rate/nproc. A request due while its connection is
/// still busy is sent when it frees, and its latency counts from when it
/// was due. `tick0` is the serve_hot tick clock at the phase start.
std::vector<Request> open_loop(const Workload& w, const PhaseCtx& ctx,
                               const std::string& socket, std::uint64_t seed,
                               double seconds, double tick0, CheckResult& check) {
  const std::size_t conns = nproc();
  std::vector<std::vector<Request>> plans(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    util::Rng rng = util::Rng::stream(seed, 0x09e7, c);
    double t = 0.0;
    std::uint64_t i = 0;
    while (true) {
      t += rng.exponential(w.rate / static_cast<double>(conns));
      if (t >= seconds) break;
      plans[c].push_back(make_request(w, ctx.races, rng, tick0 + t, (c << 32) | ++i));
      plans[c].back().due = t;
    }
  }
  std::vector<CheckResult> checks(conns);
  std::vector<std::thread> threads;
  std::atomic<int> connect_failures{0};
  const double start = now_s() + 0.05;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      serve::ForecastClient client(client_config(socket));
      if (!client.connect().ok()) {
        connect_failures.fetch_add(1);
        return;
      }
      double free_at = start;
      for (auto& r : plans[c]) {
        r.due += start;
        if (now_s() > start + seconds + kDrainGrace) continue;  // never sent
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(r.due))));
        r.sent = now_s();
        r.lag = r.sent - std::max(r.due, free_at);
        send(client, r, ctx, checks[c]);
        free_at = r.done;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (connect_failures.load() > 0) throw std::runtime_error("client connect failed");
  std::vector<Request> all;
  for (std::size_t c = 0; c < conns; ++c) {
    check.merge(checks[c]);
    for (auto& r : plans[c]) all.push_back(std::move(r));
  }
  return all;
}

/// Closed loop: nproc connections, each sending its next request when the
/// previous answer arrives, for `seconds`, with the serve_hot tick clock
/// held at `tick`. Only the first kClosedKept response bodies per
/// connection are kept (for the byte-for-byte sample); every response is
/// checked as it arrives.
std::vector<Request> closed_loop(const Workload& w, const PhaseCtx& ctx,
                                 const std::string& socket, std::uint64_t seed,
                                 double seconds, double tick, double& wall,
                                 CheckResult& check) {
  const std::size_t conns = nproc();
  std::vector<std::vector<Request>> got(conns);
  std::vector<CheckResult> checks(conns);
  std::vector<std::thread> threads;
  std::atomic<int> connect_failures{0};
  const double start = now_s();
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      serve::ForecastClient client(client_config(socket));
      if (!client.connect().ok()) {
        connect_failures.fetch_add(1);
        return;
      }
      util::Rng rng = util::Rng::stream(seed, 0xc105ed, c);
      std::uint64_t i = 0;
      while (now_s() < start + seconds) {
        Request r = make_request(w, ctx.races, rng, tick, (c << 32) | ++i);
        r.sent = now_s();
        r.due = r.sent;
        send(client, r, ctx, checks[c]);
        if (got[c].size() >= kClosedKept) r.resp.cars.clear();
        got[c].push_back(std::move(r));
      }
    });
  }
  for (auto& t : threads) t.join();
  wall = now_s() - start;
  if (connect_failures.load() > 0) throw std::runtime_error("client connect failed");
  std::vector<Request> all;
  for (std::size_t c = 0; c < conns; ++c) {
    check.merge(checks[c]);
    for (auto& r : got[c]) all.push_back(std::move(r));
  }
  return all;
}

/// One pass of a serve workload: `rounds` rounds, each an open-loop segment
/// and then, where the workload has one, a closed-loop segment. Round k > 0
/// draws its requests from its own stream of `seed`.
struct Pass {
  std::vector<Request> opened, closed;
  double closed_wall = 0.0;
};

Pass serve_pass(const Workload& w, const PhaseCtx& ctx, const std::string& socket,
                std::uint64_t seed, double open_s, double closed_s, double tick0,
                CheckResult& check) {
  const int rounds = closed_s > 0.0 ? kServeRounds : 1;
  Pass p;
  double tick = tick0;
  for (int k = 0; k < rounds; ++k) {
    const std::uint64_t s =
        k == 0 ? seed : util::Rng::stream(seed, 0x50d, static_cast<std::uint64_t>(k))();
    auto opened = open_loop(w, ctx, socket, s, open_s / rounds, tick, check);
    tick += open_s / rounds;
    std::move(opened.begin(), opened.end(), std::back_inserter(p.opened));
    if (closed_s <= 0.0) continue;
    double wall = 0.0;
    auto closed = closed_loop(w, ctx, socket, s, closed_s / rounds, tick, wall, check);
    p.closed_wall += wall;
    std::move(closed.begin(), closed.end(), std::back_inserter(p.closed));
  }
  return p;
}

/// Accuracy sweep, after the timed phases: one forecast per race every
/// kSweepStride laps at the workload's shape, through the reference from
/// the seed a request would carry. rank_mae then covers whole races, not
/// just the laps the traffic happened to ask for, which keeps it comparable
/// between seeds; the byte-for-byte check ties these medians to the served
/// ones.
Mae accuracy_sweep(const Workload& w, const std::vector<RacePtr>& races,
                   Reference& ref, std::uint64_t seed) {
  Mae mae;
  std::uint64_t id = 0;
  for (const auto& race : races) {
    for (int origin = kSweepStride; origin + w.horizon <= race->num_laps();
         origin += kSweepStride) {
      const std::uint64_t request_seed =
          w.kind == Kind::kServeHot ? kHotAppSeed : util::Rng::stream(seed, 0xacc, ++id)();
      const auto samples = ref.forecast(*race, origin, w.horizon, w.samples,
                                        util::Rng(request_seed)());
      for (const auto& [car_id, m] : samples) {
        mae.add(*race, origin, car_id, core::median_trajectory(m));
      }
    }
  }
  return mae;
}

/// Per-phase bookkeeping line: sent, answered by tier, rejected, failed.
std::string phase_summary(const char* phase, const std::vector<Request>& rs) {
  std::size_t unsent = 0, transport = 0, tiers[5] = {0, 0, 0, 0, 0};
  for (const auto& r : rs) {
    if (!r.sent_ok) {
      ++unsent;
    } else if (!r.transport_ok) {
      ++transport;
    } else {
      ++tiers[static_cast<int>(r.resp.tier)];
    }
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s: planned %zu, sent %zu, full %zu, cached %zu, partial %zu, "
                "fallback %zu, rejected %zu, transport errors %zu, never sent %zu",
                phase, rs.size(), rs.size() - unsent, tiers[1], tiers[2], tiers[3],
                tiers[4], tiers[0], transport, unsent);
  return buf;
}

bool failed(const Request& r) {
  return !r.sent_ok || !r.transport_ok || !r.resp.ok() ||
         r.resp.tier == wire::Tier::kRejected;
}

void run_serve(const Args& args, const Models& models,
               const std::vector<RacePtr>& races, ServeStack& stack,
               const std::shared_ptr<SpanLog>& spans, Outcome& out) {
  const Workload& w = *args.workload;
  const Eligible eligible(models, races);
  // The traced run splits --seconds between an untraced reference pass and
  // the traced pass, both with the same two phases.
  const double pass_s = spans ? args.seconds / 2 : args.seconds;
  const double closed_s = w.closed_share * pass_s;
  const double open_s = pass_s - closed_s;
  CheckResult check;

  double untraced_root_ms = 0.0;
  double tick0 = 0.0;  // serve_hot tick clock at the measured pass start
  if (spans) {
    const PhaseCtx ctx{races, eligible, nullptr};
    const std::uint64_t ref_seed = util::Rng::stream(args.seed, 0x0ef)();
    const auto ref = serve_pass(w, ctx, stack.socket, ref_seed, open_s, closed_s, 0.0, check);
    double sum = 0.0, n = 0.0;
    for (const auto* phase : {&ref.opened, &ref.closed}) {
      for (const auto& r : *phase) {
        if (!r.good) continue;
        sum += 1e3 * (r.done - r.sent);
        n += 1.0;
      }
    }
    untraced_root_ms = ratio(sum, n);
    tick0 = pass_s;
    spans->set_enabled(true);
  }

  auto& reg = obs::Registry::instance();
  auto& admit_hist = reg.latency_histogram("serve.request.latency");
  static const double kBatchBounds[] = {1, 2, 4, 8, 16, 32, 64};
  auto& batch_hist = reg.histogram("serve.batch.size", kBatchBounds);
  admit_hist.reset();
  batch_hist.reset();
  const auto model = stack.registry->active();
  const double engine_wall0 = model->fleet->stats().wall_seconds;
  const auto c0 = Counters::take();
  const PhaseCtx ctx{races, eligible, spans.get()};
  CheckResult measured;
  auto pass = serve_pass(w, ctx, stack.socket, args.seed, open_s, closed_s, tick0, measured);
  const auto& opened = pass.opened;
  const auto& closed = pass.closed;
  const double closed_wall = pass.closed_wall;
  const auto c1 = Counters::take();
  const double engine_wall1 = model->fleet->stats().wall_seconds;
  if (spans) spans->set_enabled(false);
  out.peak_rss_mb = status_mb("VmHWM");
  check.merge(measured);

  out.notes.push_back(phase_summary("open loop", opened));
  if (!closed.empty()) out.notes.push_back(phase_summary("closed loop", closed));
  out.notes.push_back(std::to_string(measured.mislabelled) +
                      " responses labelled full/cached carried deadline-fallback "
                      "cars; counted as partial answers");
  std::vector<double> lags;
  for (const auto& r : opened) {
    if (r.sent_ok) lags.push_back(1e3 * r.lag);
  }
  const double lag_p99 = quantile(lags, 0.99);
  out.notes.push_back("generator lag p99 " + std::to_string(lag_p99) + " ms over " +
                      std::to_string(lags.size()) + " sends");
  if (lag_p99 > kMaxLagMs) {
    throw InvalidRun("generator fell behind its schedule: lag p99 " +
                     std::to_string(lag_p99) + " ms");
  }

  std::size_t failures = 0;
  for (const auto* phase : {&opened, &closed}) {
    for (const auto& r : *phase) failures += failed(r) ? 1 : 0;
  }
  out.attempted = opened.size() + closed.size();
  out.failed = failures;
  out.notes.push_back("failed_share = " + std::to_string(failures) + " / " +
                      std::to_string(out.attempted) + " = " +
                      std::to_string(ratio(static_cast<double>(failures),
                                           static_cast<double>(out.attempted))));

  // A seeded sample of the good responses whose bodies were kept is
  // recomputed through a standalone single-shard fleet from the same base.
  std::vector<const Request*> answered;
  for (const auto* phase : {&opened, &closed}) {
    for (const auto& r : *phase) {
      if (r.good && !r.resp.cars.empty()) answered.push_back(&r);
    }
  }
  Reference ref(models);
  util::Rng pick(util::Rng::stream(args.seed, 0xc4ec)());
  std::size_t leader_mislabels = 0;
  for (int k = 0; k < kCheckSample && !answered.empty(); ++k) {
    const Request& r = *answered[static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(answered.size()) - 1))];
    const auto& race = *races[r.race];
    const auto again = ref.forecast(race, r.req.origin_lap, r.req.horizon,
                                    r.req.num_samples, util::Rng(r.req.seed)());
    ++check.recomputed;
    bool shape = again.size() == r.resp.cars.size();
    std::size_t differing = 0, fallback = 0, j = 0;
    for (const auto& [car_id, m] : again) {
      if (!shape) break;
      const auto& car = r.resp.cars[j++];
      if (car.car_id != car_id) {
        shape = false;
      } else if (!same_bytes(core::median_trajectory(m), car.median)) {
        ++differing;
        if (currank_signature(race, r.req.origin_lap, car)) ++fallback;
      }
    }
    if (shape && differing == fallback && fallback > 0) {
      ++leader_mislabels;  // only the leader fell back, which send() cannot see
    } else if (!shape || differing > 0) {
      check.fail("request " + std::to_string(r.req.request_id) + " (tier " +
                 wire::tier_name(r.resp.tier) + ", " + std::to_string(differing) +
                 " of " + std::to_string(again.size()) +
                 " cars) differs from the single-shard recompute");
    }
  }
  if (leader_mislabels > 0) {
    out.notes.push_back(std::to_string(leader_mislabels) +
                        " recomputed responses labelled full/cached differ only in "
                        "a leader's deadline fallback");
  }
  if (answered.empty()) check.fail("no request was answered at full fidelity");
  report_checks(check, "responses", out);
  accuracy_sweep(w, races, ref, args.seed).report(out);

  if (spans) {
    auto& m = out.metrics;
    m.push_back({"serve.admit_to_send_p50_ms", 1e3 * admit_hist.approx_quantile(0.5),
                 "ms", "serve.request.latency histogram"});
    m.push_back({"serve.admit_to_send_p95_ms", 1e3 * admit_hist.approx_quantile(0.95),
                 "ms", "serve.request.latency histogram"});
    std::vector<double> client;
    for (const auto* phase : {&opened, &closed}) {
      for (const auto& r : *phase) {
        if (r.good) client.push_back(1e3 * (r.done - r.sent));
      }
    }
    m.push_back({"serve.client_overhead_p50_ms",
                 median(client) - 1e3 * admit_hist.approx_quantile(0.5), "ms",
                 "client p50 minus admit-to-send p50"});
    m.push_back({"serve.batch_size_mean", batch_hist.mean(), "count", ""});
    m.push_back({"serve.generator_lag_p99_ms", lag_p99, "ms", ""});
    m.push_back({"serve.tier_mislabel_share",
                 ratio(static_cast<double>(measured.mislabelled),
                       static_cast<double>(opened.size() + closed.size())),
                 "share", "full/cached label on a partial forecast"});
    counter_metrics(c0, c1, engine_wall1 - engine_wall0,
                    static_cast<double>(opened.size() + closed.size()), m);
    const auto all = spans->take();
    self_time_metrics(all, "serve.request", true, untraced_root_ms, m);
    write_spans(all, args.run_dir + "/spans.jsonl");
    return;
  }

  std::vector<double> lat;
  std::size_t within = 0;
  for (const auto& r : opened) {
    if (!r.good) continue;
    const double ms = 1e3 * (r.done - r.due);
    lat.push_back(ms);
    if (ms <= w.limit_ms) ++within;
  }
  // Throughput: the closed loop's capacity where the workload has one,
  // else the goodput of the open loop at its offered rate.
  const auto& phase = closed.empty() ? opened : closed;
  const double phase_s = closed.empty() ? open_s : closed_wall;
  std::size_t phase_good = 0;
  for (const auto& r : phase) phase_good += r.good ? 1 : 0;
  const std::string n = "n=" + std::to_string(lat.size()) + " at " +
                        std::to_string(static_cast<int>(w.rate)) + " req/s";
  out.metrics.push_back({"forecasts_per_s", ratio(static_cast<double>(phase_good), phase_s),
                         "1/s",
                         std::string(closed.empty() ? "open-loop goodput" : "closed loop") +
                             ", " + std::to_string(nproc()) + " connections, n=" +
                             std::to_string(phase_good)});
  out.metrics.push_back({"latency_p50_ms", quantile(lat, 0.5), "ms", n});
  // Tail percentiles are printed where ten or more samples lie beyond them.
  for (const double q : {0.9, 0.95, 0.99}) {
    if (static_cast<double>(lat.size()) * (1.0 - q) >= 10.0) {
      out.notes.push_back("latency_p" + std::to_string(static_cast<int>(q * 100)) +
                          "_ms = " + std::to_string(quantile(lat, q)) + " ms (" + n + ")");
    }
  }
  out.metrics.push_back({"slo_attainment",
                         ratio(static_cast<double>(within), static_cast<double>(opened.size())),
                         "share", "full/cached within " +
                                      std::to_string(static_cast<int>(w.limit_ms)) + " ms"});
}

// --- output ------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"forecasts_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"slo_attainment", "share"},  {"rank_mae_ratio", "x"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.admit_to_send_p50_ms", "ms"},
    {"serve.admit_to_send_p95_ms", "ms"},
    {"serve.client_overhead_p50_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.dedup_share", "share"},
    {"serve.tier_share.full", "share"},
    {"serve.tier_share.cached", "share"},
    {"serve.tier_share.partial", "share"},
    {"serve.tier_share.fallback", "share"},
    {"serve.tier_share.rejected", "share"},
    {"serve.tier_mislabel_share", "share"},
    {"serve.generator_lag_p99_ms", "ms"},
    {"fleet.concurrency", "x"},
    {"fleet.shard_imbalance", "x"},
    {"process.cpu_util", "share"},
    {"process.peak_rss_mb", "MB"},
    {"process.phase_rss_mb", "MB"},
    {"engine.fallback_car_share", "share"},
    {"cache.hit_ratio", "share"},
    {"cache.evictions_per_request", "count"},
    {"ranknet.prepare_ms", "ms"},
    {"ranknet.decode_ms", "ms"},
    {"ranknet.status_ms", "ms"},
    {"decode_tree.rows_per_branch", "count"},
    {"kernels.matmul.flops_per_forecast", "flop"},
    {"kernels.matmul.bytes_per_forecast", "B"},
    {"kernels.mul.flops_per_forecast", "flop"},
    {"kernels.mul.bytes_per_forecast", "B"},
    {"kernels.add.flops_per_forecast", "flop"},
    {"kernels.add.bytes_per_forecast", "B"},
    {"kernels.sigmoid.flops_per_forecast", "flop"},
    {"kernels.sigmoid.bytes_per_forecast", "B"},
    {"kernels.tanh.flops_per_forecast", "flop"},
    {"kernels.tanh.bytes_per_forecast", "B"},
    {"kernels.flops_per_forecast", "flop"},
    {"kernels.gflops", "Gflop/s"},
    {"workspace.allocs_per_forecast", "count"},
    {"quality.rank_mae", "rank"},
    {"quality.out_of_field_share", "share"},
    {"trace.spans", "count"},
    {"trace.root_ms", "ms"},
    {"trace.self_ms.root", "ms"},
    {"trace.self_ms.ranknet.prepare", "ms"},
    {"trace.self_ms.ranknet.decode", "ms"},
    {"trace.untraced_root_ms", "ms"},
    {"trace.overhead_share", "share"},
};

/// Prints every metric of `specs` (a layer this workload does not exercise
/// reads 0) as a table, then the result object as the last line.
void report(const Outcome& out, std::span<const MetricSpec> specs) {
  std::map<std::string, const Metric*> by_name;
  for (const auto& m : out.metrics) by_name[m.name] = &m;
  for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    const auto it = by_name.find(spec.name);
    double v = it == by_name.end() ? 0.0 : it->second->value;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%-38s %18.6f %-8s %s\n", spec.name, v, spec.unit,
                it == by_name.end() ? "(layer not exercised)" : it->second->note.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, v, spec.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now_s();
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.run_dir);
    const Workload& w = *args.workload;
    const auto spans = args.trace ? std::make_shared<SpanLog>() : nullptr;

    // setup_s: process start to ready (inputs generated, models loaded,
    // server up, serve races warmed), repeated and reported as a median.
    std::vector<double> setups;
    Models models;
    std::vector<RacePtr> races;
    std::unique_ptr<ServeStack> stack;
    const int repeats = args.trace ? 1 : kSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
      stack.reset();
      const double t0 = i == 0 ? t_start : now_s();
      races = make_races(w, args.seed);
      models = load_models(args.artifacts);
      if (w.kind != Kind::kSeason) {
        stack = build_serve(w, models, races, args.run_dir, spans);
      }
      setups.push_back(now_s() - t0);
    }

    const double ready_rss_mb = reset_peak_rss();
    Outcome out;
    if (w.kind == Kind::kSeason) {
      run_season(args, models, races, spans, out);
    } else {
      run_serve(args, models, races, *stack, spans, out);
    }
    stack.reset();

    // Memory is reported, not gated: the ready footprint steps with the
    // allocator's block sizes and what the phases add depends on how
    // concurrent decodes overlap (README.md has the measured spreads).
    out.metrics.push_back({"process.peak_rss_mb", out.peak_rss_mb, "MB",
                           "VmHWM when the measured phases end"});
    out.metrics.push_back({"process.phase_rss_mb", out.peak_rss_mb - ready_rss_mb, "MB",
                           "peak RSS the measured phases add to the ready process"});
    out.notes.push_back("peak_rss_mb = " + std::to_string(out.peak_rss_mb) +
                        " MB, of which the measured phases added " +
                        std::to_string(out.peak_rss_mb - ready_rss_mb));
    if (args.trace) {
      ranknet_layer_metrics(models, races, w, args.seed, out.metrics);
      report(out, kPerLayer);
    } else {
      out.metrics.push_back({"setup_s", median(setups), "s",
                             "median of " + std::to_string(setups.size()) + " setups"});
      report(out, kEndToEnd);
    }
    return out.correct ? 0 : 1;
  } catch (const InvalidRun& e) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}
