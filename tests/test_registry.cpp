// Tests of the model zoo: canonical configurations, cache-key behavior and
// validation splitting. Training itself is covered by test_integration.
// Also: the serving ModelRegistry's hot-swap fault coverage — a corrupt or
// truncated candidate artifact must never disturb the active model, a wild
// candidate must die at the shadow gate, and a bad model that slips through
// a permissive gate must be auto-rolled-back by probation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "serve/affine_model.hpp"
#include "serve/model_registry.hpp"
#include "simulator/season.hpp"

namespace {

using namespace ranknet;
using core::ModelZoo;
namespace wire = serve::wire;

#ifndef RANKNET_ARTIFACTS_DIR
#error "RANKNET_ARTIFACTS_DIR must point at the committed artifacts/ (set by CMake)"
#endif

TEST(ZooConfig, ArtifactsDirDefaultsAndEnvOverride) {
  core::ZooConfig cfg;
  EXPECT_FALSE(cfg.artifacts_dir.empty());
  EXPECT_GT(cfg.train.max_epochs, 0);
}

TEST(WindowConfigs, RanknetMatchesPaperTableIV) {
  const auto w = ModelZoo::ranknet_window_config();
  EXPECT_EQ(w.encoder_length, 60);   // Table IV: encoder length 60
  EXPECT_EQ(w.decoder_length, 2);    // Table IV: decoder length 2
  EXPECT_EQ(w.change_weight, 9.0);   // Fig. 7: optimal loss weight 9
  EXPECT_EQ(w.covariates.dim(), 9u); // full covariate set
}

TEST(WindowConfigs, DeepArHasNoCovariates) {
  const auto w = ModelZoo::deepar_window_config();
  EXPECT_EQ(w.covariates.dim(), 0u);
}

TEST(WindowConfigs, JointKeepsOnlyRaceStatus) {
  const auto w = ModelZoo::joint_window_config();
  EXPECT_TRUE(w.covariates.race_status);
  EXPECT_FALSE(w.covariates.age_features);
  EXPECT_FALSE(w.covariates.context_features);
  EXPECT_FALSE(w.covariates.shift_features);
  EXPECT_EQ(w.covariates.dim(), 2u);
}

TEST(CacheKeys, WindowKeyDistinguishesConfigs) {
  const auto base = ModelZoo::ranknet_window_config();
  auto weights_off = base;
  weights_off.change_weight = 1.0;
  auto shorter = base;
  shorter.encoder_length = 40;
  auto no_shift = base;
  no_shift.covariates.shift_features = false;
  const auto k0 = ModelZoo::window_key(base);
  EXPECT_NE(k0, ModelZoo::window_key(weights_off));
  EXPECT_NE(k0, ModelZoo::window_key(shorter));
  EXPECT_NE(k0, ModelZoo::window_key(no_shift));
  EXPECT_EQ(k0, ModelZoo::window_key(base));  // stable
}

TEST(CacheKeys, ModelAndTrainConfigKeysAreStable) {
  core::SeqModelConfig a, b;
  EXPECT_EQ(a.cache_key(), b.cache_key());
  b.hidden = 64;
  EXPECT_NE(a.cache_key(), b.cache_key());
  core::TrainConfig t1, t2;
  EXPECT_EQ(t1.cache_key(), t2.cache_key());
  t2.max_windows += 1;
  EXPECT_NE(t1.cache_key(), t2.cache_key());
  core::TransformerConfig tf1, tf2;
  EXPECT_EQ(tf1.cache_key(), tf2.cache_key());
  tf2.heads = 4;
  EXPECT_NE(tf1.cache_key(), tf2.cache_key());
  core::PitModelConfig p1, p2;
  EXPECT_EQ(p1.cache_key(), p2.cache_key());
  p2.min_stint = 3;
  EXPECT_NE(p1.cache_key(), p2.cache_key());
}

TEST(DefaultTrainConfig, FastEnvShrinksBudget) {
  const auto base = core::default_train_config();
  ::setenv("RANKNET_FAST", "1", 1);
  const auto fast = core::default_train_config();
  ::unsetenv("RANKNET_FAST");
  EXPECT_LT(fast.max_epochs, base.max_epochs);
  EXPECT_LT(fast.max_windows, base.max_windows);
}

TEST(ModelZoo, CommittedV1ArtifactsLoadWithoutTraining) {
  // The committed Indy500 rank (LSTM) and pit (MLP) weights predate the
  // checksummed format: bare "RKNET-01" magic. The zoo must load them as
  // they are. Loading works on a copy so a regression that retrains can
  // be seen (a new file appears) without touching the source tree.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("ranknet_v1_artifacts." + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name :
       {"Indy500-9ae0cc01a4229fcc.bin", "Indy500-45c22c32603922b0.bin"}) {
    const fs::path src = fs::path(RANKNET_ARTIFACTS_DIR) / name;
    std::ifstream in(src, std::ios::binary);
    std::uint64_t magic = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    ASSERT_EQ(magic, 0x524b4e45542d3031ULL) << src << " is not a v1 file";
    fs::copy_file(src, dir / name);
  }

  core::ZooConfig zc;
  zc.artifacts_dir = dir.string();
  zc.train = core::TrainConfig{};  // the budget the committed weights used
  ModelZoo zoo(zc);
  const auto ds = sim::build_event_dataset("Indy500");
  const auto rank = zoo.rank_model(ds);
  const auto pit = zoo.pit_model(ds);
  ASSERT_NE(rank.model, nullptr);
  ASSERT_NE(pit, nullptr);
  EXPECT_TRUE(rank.stats.train_loss.empty()) << "the zoo retrained";
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), fs::directory_iterator{}),
            2)
      << "the zoo wrote a new artifact instead of loading the v1 files";
  auto params = rank.model->params();
  for (auto* p : pit->params()) params.push_back(p);
  for (const auto* p : params) {
    for (const double v : p->value.flat()) {
      ASSERT_TRUE(std::isfinite(v)) << p->name;
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ModelRegistry hot-swap fault coverage
// ---------------------------------------------------------------------------

serve::ModelFactory affine_factory() {
  return [](const std::string& path)
             -> util::Result<std::shared_ptr<core::RaceForecaster>> {
    auto model = std::make_shared<serve::AffineRankModel>();
    if (auto st = model->load_artifact(path); !st.ok()) return st;
    return std::shared_ptr<core::RaceForecaster>(std::move(model));
  };
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class HotSwapFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    race_ = new telemetry::RaceLog(
        sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest}));
  }
  static void TearDownTestSuite() {
    delete race_;
    race_ = nullptr;
  }

  std::unique_ptr<serve::ModelRegistry> make_registry(
      double max_failure_rate = 0.0) {
    serve::RegistryConfig cfg;
    cfg.engine_threads = 0;  // inline: these tests probe policy, not speed
    cfg.gate.probe_origin_lap = 30;
    cfg.gate.probe_horizon = 5;
    cfg.gate.probe_num_samples = 4;
    cfg.gate.max_prediction_failure_rate = max_failure_rate;
    cfg.probation_requests = 8;
    auto registry =
        std::make_unique<serve::ModelRegistry>(affine_factory(), cfg);
    registry->set_probe_race(*race_);
    return registry;
  }

  /// Serialized medians of a forecast through the active engine — the
  /// byte-level "what clients are being served right now" probe.
  static std::vector<double> serve_once(serve::ModelRegistry& registry) {
    auto model = registry.active();
    EXPECT_NE(model, nullptr);
    util::Rng rng(77);
    const auto samples = model->engine->forecast(*race_, 30, 5, 4, rng);
    std::vector<double> flat;
    for (const auto& [car_id, m] : samples) {
      const auto median = core::median_trajectory(m);
      flat.insert(flat.end(), median.begin(), median.end());
    }
    EXPECT_FALSE(flat.empty());
    return flat;
  }

  static telemetry::RaceLog* race_;
};

telemetry::RaceLog* HotSwapFaultTest::race_ = nullptr;

TEST_F(HotSwapFaultTest, BitFlippedCandidateIsRejectedAndActiveKeepsServing) {
  const std::string good = "/tmp/ranknet_swap_good.bin";
  const std::string cand = "/tmp/ranknet_swap_flip.bin";
  serve::AffineRankModel::save_artifact(good, 1.0, 0.0);
  auto registry = make_registry();
  ASSERT_TRUE(registry->init(good).ok());
  const auto baseline = serve_once(*registry);

  serve::AffineRankModel::save_artifact(cand, 2.0, 1.0);
  const auto clean = read_file(cand);
  ASSERT_FALSE(clean.empty());
  // Flip one bit at several offsets spanning header, checksum and payload:
  // every one must die in the stage step, before publish.
  for (std::size_t pos : {std::size_t{0}, clean.size() / 3, clean.size() / 2,
                          clean.size() - 1}) {
    auto corrupt = clean;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    write_file(cand, corrupt);
    const auto outcome = registry->swap(cand);
    EXPECT_EQ(outcome.action, wire::SwapAction::kRejected) << "pos " << pos;
    EXPECT_FALSE(outcome.status.ok());
    EXPECT_EQ(registry->active_version(), 1u);
    // The active model still serves byte-identical forecasts.
    const auto now = serve_once(*registry);
    ASSERT_EQ(now.size(), baseline.size());
    EXPECT_EQ(std::memcmp(now.data(), baseline.data(),
                          now.size() * sizeof(double)),
              0) << "serving output changed after rejected swap at " << pos;
  }

  // The intact candidate still promotes — the rejections above were the
  // artifact's fault, not a wedged registry.
  write_file(cand, clean);
  const auto outcome = registry->swap(cand);
  EXPECT_EQ(outcome.action, wire::SwapAction::kPromoted);
  EXPECT_EQ(registry->active_version(), 2u);
}

TEST_F(HotSwapFaultTest, TruncatedCandidateIsRejectedAndActiveKeepsServing) {
  const std::string good = "/tmp/ranknet_swap_good2.bin";
  const std::string cand = "/tmp/ranknet_swap_trunc.bin";
  serve::AffineRankModel::save_artifact(good, 1.0, 0.0);
  auto registry = make_registry();
  ASSERT_TRUE(registry->init(good).ok());
  const auto baseline = serve_once(*registry);

  serve::AffineRankModel::save_artifact(cand, 0.5, 2.0);
  const auto clean = read_file(cand);
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, clean.size() / 2,
                           clean.size() - 1}) {
    write_file(cand, {clean.begin(), clean.begin() +
                                         static_cast<std::ptrdiff_t>(keep)});
    const auto outcome = registry->swap(cand);
    EXPECT_EQ(outcome.action, wire::SwapAction::kRejected) << "keep " << keep;
    EXPECT_EQ(registry->active_version(), 1u);
    const auto now = serve_once(*registry);
    EXPECT_EQ(std::memcmp(now.data(), baseline.data(),
                          now.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(registry->swap("/tmp/ranknet_swap_missing_file.bin").action,
            wire::SwapAction::kRejected);
  EXPECT_EQ(registry->active_version(), 1u);
}

TEST_F(HotSwapFaultTest, ShadowGateRejectsWildCoefficients) {
  const std::string good = "/tmp/ranknet_swap_good3.bin";
  const std::string wild = "/tmp/ranknet_swap_wild.bin";
  serve::AffineRankModel::save_artifact(good, 1.0, 0.0);
  // Checksums fine, coefficients insane: only the shadow gate catches it.
  serve::AffineRankModel::save_artifact(wild, 1.0, 1e9);
  auto registry = make_registry(/*max_failure_rate=*/0.0);
  ASSERT_TRUE(registry->init(good).ok());
  const auto before = obs::Registry::instance()
                          .counter("serve.registry.rejected_gate")
                          .value();
  const auto outcome = registry->swap(wild);
  EXPECT_EQ(outcome.action, wire::SwapAction::kRejected);
  EXPECT_EQ(outcome.status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry->active_version(), 1u);
  EXPECT_GT(obs::Registry::instance()
                .counter("serve.registry.rejected_gate")
                .value(),
            before);
}

TEST_F(HotSwapFaultTest, ProbationFailureAutoRollsBackToPreviousVersion) {
  const std::string v1 = "/tmp/ranknet_swap_v1.bin";
  const std::string v2 = "/tmp/ranknet_swap_v2.bin";
  const std::string bad = "/tmp/ranknet_swap_nan.bin";
  serve::AffineRankModel::save_artifact(v1, 1.0, 0.0);
  serve::AffineRankModel::save_artifact(v2, 1.1, 0.0);
  serve::AffineRankModel::save_artifact(
      bad, std::numeric_limits<double>::quiet_NaN(), 0.0);
  // Permissive gate: the NaN model slips through — production feedback is
  // the last line of defense.
  auto registry = make_registry(/*max_failure_rate=*/1.0);
  ASSERT_TRUE(registry->init(v1).ok());
  ASSERT_EQ(registry->swap(v2).action, wire::SwapAction::kPromoted);
  ASSERT_EQ(registry->active_version(), 2u);
  ASSERT_EQ(registry->swap(bad).action, wire::SwapAction::kPromoted);
  ASSERT_EQ(registry->active_version(), 3u);

  const auto rolled_before = obs::Registry::instance()
                                 .counter("serve.registry.rolled_back")
                                 .value();
  // First unhealthy serving result inside the probation window fires the
  // rollback; the restored version serves finite forecasts again.
  EXPECT_TRUE(registry->record_serving_result(3, /*ok=*/false));
  EXPECT_EQ(registry->active_version(), 2u);
  EXPECT_GT(obs::Registry::instance()
                .counter("serve.registry.rolled_back")
                .value(),
            rolled_before);
  for (double v : serve_once(*registry)) EXPECT_TRUE(std::isfinite(v));

  // Stale feedback about the rolled-back version is ignored.
  EXPECT_FALSE(registry->record_serving_result(3, false));
  EXPECT_EQ(registry->active_version(), 2u);
}

TEST_F(HotSwapFaultTest, LatencyGateRejectsSlowCandidateUnderScriptedClock) {
  // Regression for the clock injection (set_clock): pre-fix the gate timed
  // probes with util::Timer directly, so this test was impossible — wall
  // time on a shared box is not a function of the candidate, and any forced
  // version (spin in the forecaster) was flaky by construction. With the
  // scripted clock, probe latency is exactly the per-call step we choose.
  const std::string good = "/tmp/ranknet_swap_lat_good.bin";
  const std::string cand = "/tmp/ranknet_swap_lat_cand.bin";
  serve::AffineRankModel::save_artifact(good, 1.0, 0.0);
  serve::AffineRankModel::save_artifact(cand, 1.0, 0.5);

  serve::RegistryConfig cfg;
  cfg.engine_threads = 0;
  cfg.gate.probe_origin_lap = 30;
  cfg.gate.probe_horizon = 5;
  cfg.gate.probe_num_samples = 4;
  cfg.gate.max_prediction_failure_rate = 1.0;
  cfg.gate.max_latency_factor = 3.0;
  auto registry = std::make_unique<serve::ModelRegistry>(affine_factory(), cfg);
  registry->set_probe_race(*race_);
  auto now = std::make_shared<double>(0.0);
  auto step = std::make_shared<double>(1e-3);
  registry->set_clock([now, step] { return *now += *step; });

  // Init's probe (2 clock reads) books the active latency reference: 1ms.
  ASSERT_TRUE(registry->init(good).ok());

  // A candidate whose probe takes 1s blows the 3x budget and is rejected
  // with the latency verdict in the status.
  *step = 1.0;
  const auto slow = registry->swap(cand);
  EXPECT_EQ(slow.action, wire::SwapAction::kRejected);
  EXPECT_NE(slow.status.message().find("latency"), std::string::npos)
      << slow.status.to_string();
  EXPECT_EQ(registry->active_version(), 1u);

  // The same artifact probed at champion speed promotes: the rejection was
  // the latency, not the bytes.
  *step = 1e-3;
  EXPECT_EQ(registry->swap(cand).action, wire::SwapAction::kPromoted);
}

TEST_F(HotSwapFaultTest, ProbationTimeWindowExpiresUnderScriptedClock) {
  // probation_seconds bounds the probation window in time: once it elapses,
  // the version is trusted even though fewer than probation_requests
  // results arrived — a low-traffic deployment must not sit on probation
  // (and keep a rollback hair-trigger armed) forever.
  const std::string v1 = "/tmp/ranknet_swap_ptime1.bin";
  const std::string v2 = "/tmp/ranknet_swap_ptime2.bin";
  serve::AffineRankModel::save_artifact(v1, 1.0, 0.0);
  serve::AffineRankModel::save_artifact(v2, 1.1, 0.0);

  serve::RegistryConfig cfg;
  cfg.engine_threads = 0;
  cfg.probation_requests = 1000;  // request count alone would never close it
  cfg.probation_seconds = 10.0;
  // No probe race: the shadow gate is skipped, so the scripted clock is
  // consumed only by the probation machinery.
  auto registry = std::make_unique<serve::ModelRegistry>(affine_factory(), cfg);
  auto now = std::make_shared<double>(0.0);
  registry->set_clock([now] { return *now; });

  ASSERT_TRUE(registry->init(v1).ok());
  ASSERT_EQ(registry->swap(v2).action, wire::SwapAction::kPromoted);
  ASSERT_EQ(registry->active_version(), 2u);

  // Inside the window a failure still trips the rollback hair-trigger...
  *now = 5.0;
  // ...which we prove by NOT failing: healthy results keep the version.
  EXPECT_FALSE(registry->record_serving_result(2, /*ok=*/true));
  EXPECT_EQ(registry->active_version(), 2u);

  // Past the deadline the version is trusted: even an unhealthy result no
  // longer rolls back (probation is over, the failure is ordinary ops).
  *now = 10.0;
  EXPECT_FALSE(registry->record_serving_result(2, /*ok=*/false));
  EXPECT_EQ(registry->active_version(), 2u);

  // And a fresh promotion re-arms the window relative to the new publish:
  // an in-window failure on the new version does roll back.
  const std::string v3 = "/tmp/ranknet_swap_ptime3.bin";
  serve::AffineRankModel::save_artifact(v3, 0.9, 0.0);
  ASSERT_EQ(registry->swap(v3).action, wire::SwapAction::kPromoted);
  ASSERT_EQ(registry->active_version(), 3u);
  *now = 15.0;  // publish was at 10.0; deadline is 20.0
  EXPECT_TRUE(registry->record_serving_result(3, /*ok=*/false));
  EXPECT_EQ(registry->active_version(), 2u);
}

}  // namespace
