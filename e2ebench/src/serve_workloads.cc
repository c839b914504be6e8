// The two serving workloads.
//
// serve: interactive traffic. Three closed-loop clients each keep one
// single-row "ours" request in flight against CfServer's embedded table
// (default CfServerConfig). Batches never fill, so latency is set by the
// coalescing window and the cross-core wake.
//
// serve_bulk: bulk traffic. Two adult pipelines trained with different
// seeds are saved as .cfxb bundles and served through a ModelRegistry whose
// method factory adds DiCE-random beside "ours". Two clients each keep a
// window of requests in flight, alternating models; a fixed share goes to
// DiCE-random, which CfServer runs on its sequential fallback path and
// which grows the pipeline's PredictionCache. A StreamIngest attached to
// the server is fed CSV chunks of a freshly generated adult table between
// submits. Batches fill here, so the coalescing window is bypassed.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "e2ebench/src/checks.h"
#include "e2ebench/src/workloads.h"
#include "src/baselines/dice_random.h"
#include "src/common/rng.h"
#include "src/constraints/constraint.h"
#include "src/core/artifact.h"
#include "src/core/experiment.h"
#include "src/core/generator.h"
#include "src/data/csv.h"
#include "src/datasets/registry.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/stream/ingest.h"

namespace e2e {
namespace {

using cfx::CfResult;
using cfx::Matrix;
using cfx::serve::CfRequest;
using cfx::serve::CfResponse;
using cfx::serve::CfServer;
using cfx::serve::CfServerConfig;
using cfx::serve::CfServerStats;

// --- Workload constants (see e2ebench/README.md for the reasoning). ---

/// Training seed of the served pipelines: the model is part of the program
/// under test, so it is the same in every run; --seed picks the traffic.
constexpr uint64_t kServeModelSeed = 3;
constexpr uint64_t kBulkModelSeeds[2] = {71, 72};

/// nproc - 1 on the 4-vCPU reference host: one core is left to the
/// server's dispatch worker.
constexpr size_t kServeClients = 3;
constexpr size_t kServeRequestsPerClient = 600;
constexpr double kServeNominalRoundSeconds = 0.37;

constexpr size_t kBulkClients = 2;
constexpr size_t kBulkWindow = 32;
constexpr size_t kBulkRequestsPerClient = 6000;
/// One request in kDicePeriod goes to DiCE-random (2%).
constexpr size_t kDicePeriod = 50;
constexpr size_t kStreamRowsPerRound = 2000;
constexpr size_t kStreamChunkBytes = 4096;
constexpr double kBulkNominalRoundSeconds = 0.15;

/// "ours" responses per round re-generated directly for the bitwise check.
constexpr size_t kBitwiseSamplesPerRound = 16;

/// Calls timed by the traced run's direct-generation probes.
constexpr size_t kDirectCalls = 2000;
constexpr size_t kDirect32Calls = 200;

std::unique_ptr<cfx::Experiment> MustCreate(cfx::DatasetId id, uint64_t seed) {
  cfx::RunConfig config;
  config.scale = cfx::Scale::kSmall;
  config.seed = seed;
  auto experiment = cfx::Experiment::Create(id, config);
  MustOk(experiment.status(), "Experiment::Create");
  return std::move(*experiment);
}

double MedianUs(const std::vector<double>& seconds) {
  return 1e6 * Median(seconds);
}

/// One planned request: which model's test row it carries and where its
/// response is captured.
struct PlannedRequest {
  size_t model = 0;
  size_t row = 0;
  bool dice = false;
  size_t slot = 0;  ///< Row within the client's capture for `model`.
};

/// Per-client capture and timing buffers, reused across rounds.
struct ClientLog {
  std::vector<PlannedRequest> plan;
  std::vector<ServedRows> captured;  ///< One per model.
  std::vector<double> latency;       ///< Per request, seconds.
  std::vector<double> submit;        ///< Traced: Submit call, seconds.
  std::vector<double> reply_wait;    ///< Traced: Submit return -> ready.
  std::vector<double> offer;         ///< Traced: StreamIngest::Offer calls.
};

void Capture(const CfResponse& response, const PlannedRequest& p,
             ClientLog* log) {
  ServedRows& rows = log->captured[p.model];
  rows.ok[p.slot] = response.status.ok();
  if (!response.status.ok()) return;
  const size_t w = rows.cfs.cols();
  if (response.cf.size() == w && response.cf_raw.size() == w) {
    std::copy(response.cf.data(), response.cf.data() + w,
              rows.cfs.data() + p.slot * w);
    std::copy(response.cf_raw.data(), response.cf_raw.data() + w,
              rows.cfs_raw.data() + p.slot * w);
  } else {
    rows.ok[p.slot] = 0;
  }
  rows.desired[p.slot] = response.desired;
  rows.predicted[p.slot] = response.predicted;
}

/// Fills each client's captures with the planned instances (their inputs
/// are known before the round) and sizes its buffers.
void PrepareCaptures(const std::vector<const Matrix*>& pools,
                     std::vector<ClientLog>* clients) {
  const size_t width = pools[0]->cols();
  for (ClientLog& log : *clients) {
    std::vector<size_t> counts(pools.size(), 0);
    for (PlannedRequest& p : log.plan) p.slot = counts[p.model]++;
    log.captured.assign(pools.size(), ServedRows());
    for (size_t m = 0; m < pools.size(); ++m) {
      log.captured[m].Resize(counts[m], width);
    }
    for (const PlannedRequest& p : log.plan) {
      ServedRows& rows = log.captured[p.model];
      std::copy(pools[p.model]->data() + p.row * width,
                pools[p.model]->data() + (p.row + 1) * width,
                rows.instances.data() + p.slot * width);
      rows.ours[p.slot] = !p.dice;
    }
    log.latency.assign(log.plan.size(), 0.0);
  }
}

/// Builds a round's requests for one client (outside the timed window).
std::vector<CfRequest> BuildRequests(const ClientLog& log,
                                     const std::vector<std::string>& models) {
  std::vector<CfRequest> requests(log.plan.size());
  for (size_t j = 0; j < log.plan.size(); ++j) {
    const PlannedRequest& p = log.plan[j];
    const ServedRows& rows = log.captured[p.model];
    requests[j].instance = rows.instances.SliceRows(p.slot, p.slot + 1);
    requests[j].method = p.dice ? "dice" : "ours";
    requests[j].model = models[p.model];
  }
  return requests;
}

/// Runs every client on its own thread, released together; returns when
/// all have finished. `body(c)` is client c's loop.
template <typename Body>
void RunClients(size_t clients, Body body) {
  std::latch go(1);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&go, &body, c] {
      go.wait();
      body(c);
    });
  }
  go.count_down();
  for (std::thread& t : threads) t.join();
}

/// Seeded "ours" samples for the bitwise serving-contract check: generates
/// each sampled instance directly and compares.
void CheckSampledBitwise(const std::vector<ClientLog>& clients,
                         const std::vector<cfx::FeasibleCfGenerator*>& gens,
                         uint64_t seed, Report* report) {
  cfx::Rng rng(seed);
  std::vector<std::string> problems;
  for (size_t s = 0; s < kBitwiseSamplesPerRound; ++s) {
    const ClientLog& log = clients[rng.UniformInt(clients.size())];
    const size_t model = rng.UniformInt(gens.size());
    const ServedRows& rows = log.captured[model];
    if (rows.size() == 0) continue;
    size_t i = rng.UniformInt(rows.size());
    for (size_t tries = 0; !rows.ours[i] && tries < rows.size(); ++tries) {
      i = (i + 1) % rows.size();
    }
    if (!rows.ours[i] || !rows.ok[i]) continue;
    const CfResult direct = gens[model]->Generate(rows.instances.Row(i));
    for (std::string& p : CheckBitwiseEqual(rows, i, direct)) {
      problems.push_back(std::move(p));
    }
  }
  report->FailAll("serving contract", problems);
}

/// Structural and label checks of every captured response; returns the
/// number of responses whose status was not OK.
size_t CheckCaptures(const std::vector<ClientLog>& clients,
                     const std::vector<const cfx::TabularEncoder*>& encoders,
                     const std::vector<LabelFn>& labels, Report* report) {
  size_t failed = 0;
  for (const ClientLog& log : clients) {
    for (size_t m = 0; m < log.captured.size(); ++m) {
      const ServedRows& rows = log.captured[m];
      for (uint8_t ok : rows.ok) failed += ok == 0;
      report->FailAll("served response",
                      CheckServedRows(*encoders[m], labels[m], rows));
    }
  }
  return failed;
}

/// Traced probes of the generation floor under the server: single-row and
/// 32-row GenerateMany on the served generator, no scheduler involved.
void AddDirectProbes(cfx::FeasibleCfGenerator* gen, const Matrix& pool,
                     Report* report) {
  cfx::nn::InferWorkspace ws;
  std::vector<double> one, per_row;
  one.reserve(kDirectCalls);
  for (size_t i = 0; i < kDirectCalls; ++i) {
    const size_t r = i % pool.rows();
    const Matrix row = pool.SliceRows(r, r + 1);
    const Clock::time_point t0 = Clock::now();
    CfResult result = gen->GenerateMany(row, &ws);
    one.push_back(SecondsSince(t0));
    if (result.size() != 1) report->Fail("direct GenerateMany row count");
  }
  const size_t batch = std::min<size_t>(32, pool.rows());
  for (size_t i = 0; i < kDirect32Calls; ++i) {
    const size_t r = (i * batch) % (pool.rows() - batch + 1);
    const Matrix rows = pool.SliceRows(r, r + batch);
    const Clock::time_point t0 = Clock::now();
    CfResult result = gen->GenerateMany(rows, &ws);
    per_row.push_back(SecondsSince(t0) / static_cast<double>(batch));
    if (result.size() != batch) report->Fail("direct GenerateMany row count");
  }
  report->AddLayer("serve.direct_us", MedianUs(one), "us");
  report->AddLayer("serve.direct32_us_per_row", MedianUs(per_row), "us");
}

/// Latency tail and throughput layer metrics shared by both workloads.
void AddServeReference(const std::vector<double>& latencies,
                       const PhaseLog& log, Report* report) {
  if (SamplesBeyond(latencies.size(), 99) >= kMinTailSamples) {
    report->AddLayer("serve.latency_p99_ms", 1e3 * Percentile(latencies, 0.99),
                     "ms");
  }
  report->AddLayer("serve.samples", static_cast<double>(latencies.size()),
                   "count");
  double wall = 0.0;
  for (double s : log.round_seconds) wall += s;
  report->AddLayer("serve.rows_per_s",
                   static_cast<double>(latencies.size()) / wall, "rows/s");
}

void AddRowsPerBatch(const CfServerStats& stats, Report* report) {
  report->AddLayer("serve.rows_per_batch",
                   stats.batches == 0
                       ? 0.0
                       : static_cast<double>(stats.batched_rows) /
                             static_cast<double>(stats.batches),
                   "rows");
}

// ------------------------------------------------------------------ serve

struct ServeState {
  std::unique_ptr<cfx::Experiment> experiment;
  std::unique_ptr<cfx::FeasibleCfGenerator> generator;
  std::unique_ptr<CfServer> server;
  double fit_seconds = 0.0;
};

std::unique_ptr<ServeState> SetUpServe() {
  auto state = std::make_unique<ServeState>();
  state->experiment = MustCreate(cfx::DatasetId::kAdult, kServeModelSeed);
  state->generator = std::make_unique<cfx::FeasibleCfGenerator>(
      state->experiment->method_context(), cfx::GeneratorConfig());
  const Clock::time_point t0 = Clock::now();
  MustOk(state->generator->Fit(state->experiment->x_train(),
                               state->experiment->y_train()),
         "generator Fit");
  state->fit_seconds = SecondsSince(t0);
  state->server = std::make_unique<CfServer>(CfServerConfig());
  state->server->RegisterMethod("ours", state->generator.get());
  state->server->Start();
  return state;
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  PhaseLog log;
  std::vector<double> fit_seconds;
  std::unique_ptr<ServeState> state;
  for (size_t i = 0; i < options.setups; ++i) {
    state.reset();
    const Clock::time_point t0 = i == 0 ? ProcessStart() : Clock::now();
    state = SetUpServe();
    log.setup_seconds.push_back(SecondsSince(t0));
    fit_seconds.push_back(state->fit_seconds);
  }

  const Matrix& pool = state->experiment->x_test();
  cfx::Rng rng(options.seed);
  std::vector<ClientLog> clients(kServeClients);
  for (ClientLog& c : clients) {
    c.plan.resize(kServeRequestsPerClient);
    for (PlannedRequest& p : c.plan) p.row = rng.UniformInt(pool.rows());
    if (options.trace) {
      c.submit.assign(kServeRequestsPerClient, 0.0);
      c.reply_wait.assign(kServeRequestsPerClient, 0.0);
    }
  }
  PrepareCaptures({&pool}, &clients);
  const std::vector<std::string> models = {""};
  const LabelFn labels =
      FrozenClassifierLabels(state->experiment->classifier());
  CfServer& server = *state->server;

  const size_t rounds = RoundsFor(options.seconds, kServeNominalRoundSeconds);
  std::vector<double> latencies, submits, waits;
  const CfServerStats stats_before = server.stats();
  log.rss_before_mb = CurrentRssMb();
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<std::vector<CfRequest>> requests;
    for (const ClientLog& c : clients) {
      requests.push_back(BuildRequests(c, models));
    }
    const bool trace = options.trace;
    const RoundTimer timer;
    RunClients(kServeClients, [&](size_t ci) {
      ClientLog& c = clients[ci];
      for (size_t j = 0; j < c.plan.size(); ++j) {
        const Clock::time_point t0 = Clock::now();
        std::future<CfResponse> future =
            server.Submit(std::move(requests[ci][j]));
        Clock::time_point t1;
        if (trace) t1 = Clock::now();
        future.wait();
        const Clock::time_point t2 = Clock::now();
        Capture(future.get(), c.plan[j], &c);
        c.latency[j] = Seconds(t0, t2);
        if (trace) {
          c.submit[j] = Seconds(t0, t1);
          c.reply_wait[j] = Seconds(t1, t2);
        }
      }
    });
    timer.Stop(&log);
    for (const ClientLog& c : clients) {
      latencies.insert(latencies.end(), c.latency.begin(), c.latency.end());
      submits.insert(submits.end(), c.submit.begin(), c.submit.end());
      waits.insert(waits.end(), c.reply_wait.begin(), c.reply_wait.end());
    }
    const size_t failed = CheckCaptures(
        clients, {&state->experiment->encoder()}, {labels}, report);
    CheckSampledBitwise(clients, {state->generator.get()},
                        options.seed * 1000003 + round, report);
    report->CountOperations(kServeClients * kServeRequestsPerClient, failed);
  }
  log.rss_after_mb = CurrentRssMb();
  log.op_seconds = latencies;
  AddPhaseMetrics(log, options.trace, report);

  if (options.trace) {
    CfServerStats stats = server.stats();
    stats.batches -= stats_before.batches;
    stats.batched_rows -= stats_before.batched_rows;
    report->AddLayer("serve.submit_us", MedianUs(submits), "us");
    report->AddLayer("serve.reply_wait_us", MedianUs(waits), "us");
    AddDirectProbes(state->generator.get(), pool, report);
    AddRowsPerBatch(stats, report);
    AddServeReference(latencies, log, report);
    report->AddLayer("core.generator_fit_s", Median(fit_seconds), "s");
  }
  state->server->Shutdown();
}

// ------------------------------------------------------------- serve_bulk

namespace {

struct BulkState {
  std::unique_ptr<cfx::serve::ModelRegistry> registry;
  std::vector<std::string> models;
  /// Pins held for the whole run: the traffic pools, the stream binding and
  /// the checks read these pipelines.
  std::vector<std::shared_ptr<cfx::serve::PipelineHandle>> pins;
  double fit_seconds = 0.0;          ///< Both generators' Fit.
  std::vector<double> coldstart_ms;  ///< First Acquire of each model.
};

cfx::Status AddBulkMethods(cfx::serve::PipelineHandle* handle) {
  CFX_RETURN_IF_ERROR(handle->RegisterDefaultMethods());
  cfx::Experiment* experiment = handle->experiment();
  auto dice =
      std::make_unique<cfx::DiceRandomMethod>(experiment->method_context());
  CFX_RETURN_IF_ERROR(dice->Fit(experiment->x_train(), experiment->y_train()));
  return handle->AddMethod("dice", std::move(dice));
}

std::unique_ptr<BulkState> SetUpBulk(const std::string& work_dir) {
  auto state = std::make_unique<BulkState>();
  state->registry = std::make_unique<cfx::serve::ModelRegistry>();
  for (size_t m = 0; m < 2; ++m) {
    const std::string path =
        work_dir + "/bulk_model" + std::to_string(m) + ".cfxb";
    {
      // Train and save; the training pipeline is dropped once the bundle is
      // written, so only the registry's restored copies stay resident.
      std::unique_ptr<cfx::Experiment> experiment =
          MustCreate(cfx::DatasetId::kAdult, kBulkModelSeeds[m]);
      cfx::FeasibleCfGenerator generator(experiment->method_context(),
                                         cfx::GeneratorConfig());
      const Clock::time_point t0 = Clock::now();
      MustOk(generator.Fit(experiment->x_train(), experiment->y_train()),
             "generator Fit");
      state->fit_seconds += SecondsSince(t0);
      MustOk(cfx::SavePipelineBundle(path, experiment.get(), &generator),
             "SavePipelineBundle");
    }
    const std::string id = "adult" + std::to_string(m);
    MustOk(state->registry->Register(id, path, AddBulkMethods),
           "ModelRegistry::Register");
    const Clock::time_point t0 = Clock::now();
    auto pin = state->registry->Acquire(id);
    MustOk(pin.status(), "ModelRegistry::Acquire");
    state->coldstart_ms.push_back(1e3 * SecondsSince(t0));
    state->models.push_back(id);
    state->pins.push_back(std::move(*pin));
  }
  return state;
}

/// A freshly generated, fully populated adult table.
cfx::Table AdultTable(size_t rows, uint64_t seed) {
  auto generator = cfx::CreateGenerator(cfx::DatasetId::kAdult);
  cfx::Rng rng(seed);
  return generator->Generate(rows, rows, &rng);
}

/// `table` as CSV text (header + rows), through the library's own writer.
std::string CsvText(const cfx::Table& table, const std::string& work_dir) {
  const std::string path = work_dir + "/stream_feed.csv";
  MustOk(cfx::WriteTableCsv(table, path), "WriteTableCsv");
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  return text.str();
}

}  // namespace

void RunServeBulk(const RunOptions& options, Report* report) {
  PhaseLog log;
  std::vector<double> fit_seconds, coldstart_ms;
  std::unique_ptr<BulkState> state;
  for (size_t i = 0; i < options.setups; ++i) {
    state.reset();
    const Clock::time_point t0 = i == 0 ? ProcessStart() : Clock::now();
    state = SetUpBulk(options.work_dir);
    log.setup_seconds.push_back(SecondsSince(t0));
    fit_seconds.push_back(state->fit_seconds);
    coldstart_ms.insert(coldstart_ms.end(), state->coldstart_ms.begin(),
                        state->coldstart_ms.end());
  }

  // Traffic: per client, requests alternate models; exactly one in
  // kDicePeriod (at a seeded offset within each period) is DiCE-random.
  std::vector<const Matrix*> pools;
  std::vector<const cfx::TabularEncoder*> encoders;
  std::vector<LabelFn> labels;
  std::vector<cfx::FeasibleCfGenerator*> generators;
  for (const auto& pin : state->pins) {
    pools.push_back(&pin->experiment()->x_test());
    encoders.push_back(&pin->experiment()->encoder());
    labels.push_back(FrozenClassifierLabels(pin->experiment()->classifier()));
    generators.push_back(pin->generator());
  }
  cfx::Rng rng(options.seed);
  std::vector<ClientLog> clients(kBulkClients);
  for (size_t ci = 0; ci < kBulkClients; ++ci) {
    ClientLog& c = clients[ci];
    c.plan.resize(kBulkRequestsPerClient);
    size_t dice_at = 0;
    for (size_t j = 0; j < c.plan.size(); ++j) {
      if (j % kDicePeriod == 0) dice_at = j + rng.UniformInt(kDicePeriod);
      PlannedRequest& p = c.plan[j];
      p.model = (j + ci) % pools.size();
      p.row = rng.UniformInt(pools[p.model]->rows());
      p.dice = j == dice_at;
    }
    if (options.trace) c.submit.assign(c.plan.size(), 0.0);
  }
  PrepareCaptures(pools, &clients);

  // Stream feed: fixed CSV chunks, offered by client 0 between submits.
  const std::string csv = CsvText(
      AdultTable(kStreamRowsPerRound, options.seed ^ 0x57EA), options.work_dir);
  std::vector<std::string> chunks;
  for (size_t at = 0; at < csv.size(); at += kStreamChunkBytes) {
    chunks.push_back(csv.substr(at, kStreamChunkBytes));
  }
  const size_t offer_every =
      std::max<size_t>(1, kBulkRequestsPerClient / (chunks.size() + 1));
  const cfx::Table baseline = AdultTable(kStreamRowsPerRound, 0xBA5E);
  cfx::Experiment* bound = state->pins[0]->experiment();
  const cfx::ConstraintSet constraints =
      cfx::MakeUnaryConstraintSet(bound->info());

  const size_t rounds = RoundsFor(options.seconds, kBulkNominalRoundSeconds);
  std::vector<double> latencies, dice_latencies, submits, offers, stop_ms,
      ingest_rate;
  CfServerStats served;
  size_t predcache_check_entries = 0;
  auto predcache_entries = [&] {
    size_t entries = 0;
    for (const auto& pin : state->pins) {
      entries += pin->experiment()->method_context().predictions->misses();
    }
    return entries;
  };
  log.rss_before_mb = CurrentRssMb();
  for (size_t round = 0; round < rounds; ++round) {
    cfx::stream::StreamIngest ingest(baseline.schema(),
                                     cfx::stream::StreamIngestConfig());
    MustOk(ingest.BindPipeline(&bound->encoder(),
                               FrozenClassifierLabels(bound->classifier()),
                               &constraints),
           "StreamIngest::BindPipeline");
    MustOk(ingest.FitBaseline(baseline), "StreamIngest::FitBaseline");
    CfServer server(CfServerConfig(), state->registry.get());
    server.AttachStreamIngest(&ingest);
    std::vector<std::vector<CfRequest>> requests;
    for (const ClientLog& c : clients) {
      requests.push_back(BuildRequests(c, state->models));
    }
    for (ClientLog& c : clients) c.offer.clear();
    server.Start();

    const bool trace = options.trace;
    Clock::time_point first_offer;
    const RoundTimer timer;
    RunClients(kBulkClients, [&](size_t ci) {
      ClientLog& c = clients[ci];
      size_t next_chunk = 0;
      auto offer_one = [&] {
        const Clock::time_point t0 = Clock::now();
        if (next_chunk == 0) first_offer = t0;
        const cfx::Status status = ingest.Offer(chunks[next_chunk]);
        if (trace) c.offer.push_back(SecondsSince(t0));
        if (status.ok()) ++next_chunk;
        return status.ok();
      };
      std::deque<std::pair<std::future<CfResponse>, Clock::time_point>> window;
      size_t oldest = 0;
      auto finish_oldest = [&] {
        window.front().first.wait();
        c.latency[oldest] = SecondsSince(window.front().second);
        Capture(window.front().first.get(), c.plan[oldest], &c);
        window.pop_front();
        ++oldest;
      };
      for (size_t j = 0; j < c.plan.size(); ++j) {
        if (window.size() == kBulkWindow) finish_oldest();
        const Clock::time_point t0 = Clock::now();
        window.emplace_back(server.Submit(std::move(requests[ci][j])), t0);
        if (trace) c.submit[j] = SecondsSince(t0);
        if (ci == 0 && j % offer_every == 0 && next_chunk < chunks.size()) {
          offer_one();
        }
      }
      while (!window.empty()) finish_oldest();
      while (ci == 0 && next_chunk < chunks.size()) {
        if (!offer_one()) std::this_thread::yield();
      }
    });
    const Clock::time_point stop0 = Clock::now();
    ingest.Stop();
    const Clock::time_point stop1 = Clock::now();
    server.Shutdown();
    timer.Stop(&log);

    stop_ms.push_back(1e3 * Seconds(stop0, stop1));
    ingest_rate.push_back(static_cast<double>(ingest.rows_ingested()) /
                          Seconds(first_offer, stop1));
    const CfServerStats stats = server.stats();
    served.batches += stats.batches;
    served.batched_rows += stats.batched_rows;
    for (const ClientLog& c : clients) {
      latencies.insert(latencies.end(), c.latency.begin(), c.latency.end());
      submits.insert(submits.end(), c.submit.begin(), c.submit.end());
      offers.insert(offers.end(), c.offer.begin(), c.offer.end());
      for (size_t j = 0; j < c.plan.size(); ++j) {
        if (c.plan[j].dice) dice_latencies.push_back(c.latency[j]);
      }
    }

    const size_t entries_before_checks = predcache_entries();
    const size_t failed = CheckCaptures(clients, encoders, labels, report);
    CheckSampledBitwise(clients, generators, options.seed * 1000003 + round,
                        report);
    predcache_check_entries += predcache_entries() - entries_before_checks;
    if (!ingest.status().ok()) {
      report->Fail("stream ingest status: " + ingest.status().ToString());
    }
    if (ingest.rows_ingested() != kStreamRowsPerRound) {
      report->Fail("stream ingest folded " +
                   std::to_string(ingest.rows_ingested()) + " rows of " +
                   std::to_string(kStreamRowsPerRound) + " offered");
    }
    report->CountOperations(kBulkClients * kBulkRequestsPerClient, failed);
  }
  log.rss_after_mb = CurrentRssMb();
  log.op_seconds = latencies;
  AddPhaseMetrics(log, options.trace, report);

  if (options.trace) {
    report->AddLayer("serve.submit_us", MedianUs(submits), "us");
    AddDirectProbes(generators[0], *pools[0], report);
    AddRowsPerBatch(served, report);
    report->AddLayer("serve.fallback_p50_ms", 1e3 * Median(dice_latencies),
                     "ms");
    AddServeReference(latencies, log, report);
    report->AddLayer("registry.coldstart_ms", Median(coldstart_ms), "ms");
    report->AddLayer(
        "baselines.predcache_entries",
        static_cast<double>(predcache_entries() - predcache_check_entries),
        "count");
    report->AddLayer("stream.offer_us", MedianUs(offers), "us");
    report->AddLayer("stream.rows_per_s", Median(ingest_rate), "rows/s");
    report->AddLayer("stream.stop_ms", Median(stop_ms), "ms");
    report->AddLayer("core.generator_fit_s", Median(fit_seconds), "s");
  }
}

}  // namespace e2e
