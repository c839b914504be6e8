// The manifold workload: the Figure 6 study on two datasets.
//
// Set-up fits the Figure 6 generator the way bench/fig6_manifolds.cc does
// (binary constraint model, absolute decoder, softened feasibility term).
// Each round then, per dataset, generates and labels counterfactuals for a
// seeded sample of training rows, encodes them, and builds the three panels
// (posterior means, latent samples, decoded counterfactuals), each one
// RunTsne + AnalyzeSeparability + DensityGrid. Adult's point count sits
// above t-SNE's exact/Barnes-Hut cut-over and law's below it, so both
// engines run. The model seed is fixed like the table4 grid's; --seed picks
// the points and the t-SNE and latent-noise streams.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/src/checks.h"
#include "e2ebench/src/workloads.h"
#include "src/common/rng.h"
#include "src/constraints/constraint.h"
#include "src/constraints/feasibility.h"
#include "src/core/experiment.h"
#include "src/core/generator.h"
#include "src/manifold/density.h"
#include "src/manifold/tsne.h"

namespace e2e {
namespace {

using cfx::Matrix;

constexpr uint64_t kModelSeed = 42;
constexpr size_t kKnn = 10;
constexpr size_t kGridCells = 20;
constexpr double kNominalRoundSeconds = 2.75;

struct DatasetPlan {
  cfx::DatasetId id;
  const char* token;
  size_t points;  ///< t-SNE point count of each panel.
};

// t-SNE's kAuto switches to Barnes-Hut above 512 points.
constexpr DatasetPlan kPlans[] = {
    {cfx::DatasetId::kAdult, "adult", 800},
    {cfx::DatasetId::kLaw, "law", 480},
};

struct ManifoldState {
  std::vector<std::unique_ptr<cfx::Experiment>> experiments;
  std::vector<std::unique_ptr<cfx::FeasibleCfGenerator>> generators;
  double create_seconds = 0.0;
  double fit_seconds = 0.0;
};

std::unique_ptr<ManifoldState> SetUpManifold() {
  auto state = std::make_unique<ManifoldState>();
  cfx::RunConfig config;
  config.scale = cfx::Scale::kSmall;
  config.seed = kModelSeed;
  for (const DatasetPlan& plan : kPlans) {
    Clock::time_point t0 = Clock::now();
    auto experiment = cfx::Experiment::Create(plan.id, config);
    MustOk(experiment.status(), "Experiment::Create");
    state->create_seconds += SecondsSince(t0);
    cfx::Experiment& exp = **experiment;

    // The bench/fig6_manifolds.cc configuration for adult and law.
    cfx::GeneratorConfig gen_config = cfx::GeneratorConfig::FromDataset(
        exp.info(), cfx::ConstraintMode::kBinary);
    gen_config.copy_prior = false;
    gen_config.max_restarts = 1;
    gen_config.loss.feasibility_weight = 2.0f;
    gen_config.min_probe_feasibility = 0.0;
    auto generator = std::make_unique<cfx::FeasibleCfGenerator>(
        exp.method_context(), gen_config);
    t0 = Clock::now();
    MustOk(generator->Fit(exp.x_train(), exp.y_train()), "generator Fit");
    state->fit_seconds += SecondsSince(t0);
    state->experiments.push_back(std::move(*experiment));
    state->generators.push_back(std::move(generator));
  }
  return state;
}

/// One panel's outputs, kept for the checks.
struct Panel {
  const char* name = "";
  Matrix points;
  Matrix embedding;
  cfx::SeparabilityStats stats;
  Matrix grid;
};

}  // namespace

void RunManifold(const RunOptions& options, Report* report) {
  PhaseLog log;
  std::vector<double> create_seconds, fit_seconds;
  std::unique_ptr<ManifoldState> state;
  for (size_t i = 0; i < options.setups; ++i) {
    state.reset();
    const Clock::time_point t0 = i == 0 ? ProcessStart() : Clock::now();
    state = SetUpManifold();
    log.setup_seconds.push_back(SecondsSince(t0));
    create_seconds.push_back(state->create_seconds);
    fit_seconds.push_back(state->fit_seconds);
  }

  // Seeded sample of distinct training rows per dataset.
  cfx::Rng rng(options.seed);
  std::vector<Matrix> inputs;
  for (size_t d = 0; d < std::size(kPlans); ++d) {
    const Matrix& train = state->experiments[d]->x_train();
    std::vector<size_t> order(train.rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = 0; i < kPlans[d].points; ++i) {
      std::swap(order[i], order[i + rng.UniformInt(order.size() - i)]);
    }
    order.resize(kPlans[d].points);
    inputs.push_back(train.GatherRows(order));
  }
  const uint64_t noise_seed = rng.NextU64();
  const uint64_t tsne_seed = rng.NextU64();

  cfx::TsneConfig tsne_config;
  tsne_config.iterations = 300;
  tsne_config.perplexity = 30.0;

  std::vector<double> tsne_bh, tsne_exact, separability_ms, density_ms,
      prep_ms;
  const size_t rounds = RoundsFor(options.seconds, kNominalRoundSeconds);
  log.rss_before_mb = CurrentRssMb();
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<std::vector<Panel>> panels(std::size(kPlans));
    std::vector<std::vector<int>> labels(std::size(kPlans));
    double prep_round = 0.0;
    const RoundTimer timer;
    for (size_t d = 0; d < std::size(kPlans); ++d) {
      cfx::Experiment& exp = *state->experiments[d];
      cfx::FeasibleCfGenerator& generator = *state->generators[d];
      const Matrix& x = inputs[d];
      const size_t n = x.rows();

      // Counterfactuals labelled feasible/infeasible under the binary
      // constraint model, and the latent views of the same rows.
      const Clock::time_point t_prep = Clock::now();
      cfx::CfResult cfs = generator.Generate(x);
      const cfx::ConstraintSet binary =
          cfx::MakeBinaryConstraintSet(exp.info());
      const cfx::FeasibilityResult feas =
          cfx::EvaluateFeasibility(binary, exp.encoder(), cfs.inputs, cfs.cfs);
      labels[d].resize(n);
      for (size_t i = 0; i < n; ++i) labels[d][i] = feas.feasible[i] ? 1 : 0;
      const std::vector<int> pred = exp.classifier()->Predict(x);
      Matrix cond(n, 1);
      for (size_t i = 0; i < n; ++i) {
        cond.at(i, 0) = static_cast<float>(1 - pred[i]);
      }
      auto [mu, logvar] = generator.vae()->Encode(x, cond);
      cfx::Rng noise(noise_seed + d);
      Matrix z_samples = mu;
      for (size_t i = 0; i < z_samples.rows(); ++i) {
        for (size_t j = 0; j < z_samples.cols(); ++j) {
          z_samples.at(i, j) += std::exp(0.5f * logvar.at(i, j)) *
                                static_cast<float>(noise.Normal());
        }
      }
      prep_round += 1e3 * SecondsSince(t_prep);

      panels[d] = {{"training", mu, {}, {}, {}},
                   {"latent_samples", z_samples, {}, {}, {}},
                   {"predictions", cfs.cfs_raw, {}, {}, {}}};
      for (size_t p = 0; p < panels[d].size(); ++p) {
        Panel& panel = panels[d][p];
        cfx::Rng tsne_rng(tsne_seed + 3 * d + p);
        const Clock::time_point t0 = Clock::now();
        panel.embedding = cfx::RunTsne(panel.points, tsne_config, &tsne_rng);
        const Clock::time_point t1 = Clock::now();
        panel.stats =
            cfx::AnalyzeSeparability(panel.embedding, labels[d], kKnn);
        const Clock::time_point t2 = Clock::now();
        panel.grid = cfx::DensityGrid(panel.embedding, kGridCells, kGridCells);
        const Clock::time_point t3 = Clock::now();
        log.op_seconds.push_back(Seconds(t0, t3));
        (n > tsne_config.exact_threshold ? tsne_bh : tsne_exact)
            .push_back(Seconds(t0, t1));
        separability_ms.push_back(1e3 * Seconds(t1, t2));
        density_ms.push_back(1e3 * Seconds(t2, t3));
      }
    }
    timer.Stop(&log);
    prep_ms.push_back(prep_round);

    size_t attempted = 0;
    for (size_t d = 0; d < std::size(kPlans); ++d) {
      for (const Panel& panel : panels[d]) {
        ++attempted;
        report->FailAll(
            std::string("manifold ") + kPlans[d].token + "/" + panel.name,
            CheckEmbedding(panel.points, panel.embedding, labels[d],
                           panel.stats, kKnn));
      }
    }
    report->CountOperations(attempted, 0);
  }
  log.rss_after_mb = CurrentRssMb();
  AddPhaseMetrics(log, options.trace, report);

  if (options.trace) {
    report->AddLayer("core.experiment_create_s", Median(create_seconds), "s");
    report->AddLayer("core.generator_fit_s", Median(fit_seconds), "s");
    report->AddLayer("manifold.tsne_bh_s", Median(tsne_bh), "s");
    report->AddLayer("manifold.tsne_exact_s", Median(tsne_exact), "s");
    report->AddLayer("manifold.separability_ms", Median(separability_ms),
                     "ms");
    report->AddLayer("manifold.density_ms", Median(density_ms), "ms");
    report->AddLayer("manifold.cf_prep_ms", Median(prep_ms), "ms");
  }
}

}  // namespace e2e
