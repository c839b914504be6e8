// Self-test of the benchmark's own code, run without any workload: the
// percentile and sample-count arithmetic against hand-computed cases, and
// every output check against a correct output (it must pass) and against
// deliberately corrupted copies (each must be rejected).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "e2ebench/src/checks.h"
#include "e2ebench/src/workloads.h"
#include "src/common/rng.h"
#include "src/datasets/registry.h"
#include "src/manifold/tsne.h"
#include "src/metrics/metrics.h"

namespace e2e {
namespace {

using cfx::EncodedBlock;
using cfx::FeatureType;
using cfx::Matrix;

class Expectations {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) {
      ++passed_;
    } else {
      ++failed_;
      std::fprintf(stderr, "SELF-TEST FAILED: %s\n", what.c_str());
    }
  }
  void Passes(const std::vector<std::string>& problems,
              const std::string& what) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "  unexpected problem: %s\n", p.c_str());
    }
    Expect(problems.empty(), what + " passes");
  }
  void Rejects(const std::vector<std::string>& problems,
               const std::string& what) {
    Expect(!problems.empty(), what + " is rejected");
  }
  int Finish() const {
    std::printf("self-test: %d passed, %d failed\n", passed_, failed_);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  int passed_ = 0;
  int failed_ = 0;
};

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

void TestArithmetic(Expectations* t) {
  t->Expect(Near(Percentile({1, 2, 3, 4}, 0.5), 2.5), "median of 1..4 is 2.5");
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  t->Expect(Near(Percentile(hundred, 0.99), 99.01), "p99 of 1..100 is 99.01");
  t->Expect(Near(Percentile(hundred, 0.5), 50.5), "p50 of 1..100 is 50.5");
  t->Expect(Near(Percentile({7}, 0.99), 7.0), "p99 of one sample is it");
  t->Expect(Near(Median({3, 1, 2}), 2.0), "median sorts its input");
  t->Expect(Near(Percentile({10, 20}, 0.0), 10.0) &&
                Near(Percentile({10, 20}, 1.0), 20.0),
            "p0 and p100 are the extremes");
  t->Expect(Near(Percentile({0, 10}, 0.25), 2.5), "p25 of {0,10} is 2.5");
  t->Expect(Percentile({}, 0.5) == 0.0, "empty input yields 0");
  t->Expect(SamplesBeyond(1000, 99) == 10, "1000 samples put 10 beyond p99");
  t->Expect(SamplesBeyond(999, 99) == 9, "999 samples put 9 beyond p99");
  t->Expect(SamplesBeyond(1099, 99) == 10, "1099 samples put 10 beyond p99");
  t->Expect(SamplesBeyond(100, 50) == 50, "100 samples put 50 beyond p50");
  t->Expect(SamplesBeyond(0, 99) == 0, "no samples, none beyond");
  t->Expect(SamplesBeyond(999, 99) < kMinTailSamples &&
                SamplesBeyond(1000, 99) >= kMinTailSamples,
            "p99 needs 1000 samples");
  t->Expect(RoundsFor(10, 0.4) == 25, "10 s of 0.4 s rounds is 25 rounds");
  t->Expect(RoundsFor(10, 22) == 1, "a round longer than the run runs once");
  t->Expect(RoundsFor(10, 4.5) == 2, "10 s of 4.5 s rounds is 2 rounds");
  t->Expect(RoundsFor(0, 1) == 1, "a zero-length run still runs a round");
}

/// A small law table, its fitted encoder and encoded rows.
struct Fixture {
  std::unique_ptr<cfx::DatasetGenerator> generator =
      cfx::CreateGenerator(cfx::DatasetId::kLaw);
  cfx::Table table = [this] {
    cfx::Rng rng(7);
    return generator->Generate(200, 200, &rng);
  }();
  cfx::TabularEncoder encoder{table.schema()};
  Matrix x;

  Fixture() {
    if (!encoder.Fit(table).ok()) std::abort();
    x = encoder.Transform(table).value();
  }
  const cfx::DatasetInfo& info() const { return generator->info(); }
};

/// Stand-in black box: the class is whether the first slot exceeds 0.5.
std::vector<int> StubLabels(const Matrix& x) {
  std::vector<int> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = x.at(r, 0) > 0.5f ? 1 : 0;
  return out;
}

/// A plausible projected counterfactual of every row: the first mutable
/// continuous feature mirrored on two rows in three (so some rows flip the
/// stub label and some do not), the first mutable categorical block's hot
/// slot rotated on odd rows.
Matrix MakeCounterfactuals(const cfx::TabularEncoder& encoder,
                           const Matrix& x) {
  Matrix cf = x;
  bool did_continuous = false, did_categorical = false;
  for (const EncodedBlock& block : encoder.blocks()) {
    if (encoder.schema().feature(block.feature_index).immutable) continue;
    if (block.type == FeatureType::kContinuous && !did_continuous) {
      for (size_t r = 0; r < cf.rows(); ++r) {
        if (r % 3 != 0) cf.at(r, block.offset) = 1.0f - cf.at(r, block.offset);
      }
      did_continuous = true;
    } else if (block.type == FeatureType::kCategorical && !did_categorical) {
      for (size_t r = 1; r < cf.rows(); r += 2) {
        size_t hot = 0;
        for (size_t j = 0; j < block.width; ++j) {
          if (cf.at(r, block.offset + j) == 1.0f) hot = j;
          cf.at(r, block.offset + j) = 0.0f;
        }
        cf.at(r, block.offset + (hot + 1) % block.width) = 1.0f;
      }
      did_categorical = true;
    }
  }
  return cf;
}

size_t FirstBlock(const cfx::TabularEncoder& encoder, FeatureType type,
                  bool immutable) {
  for (const EncodedBlock& block : encoder.blocks()) {
    if (block.type == type &&
        encoder.schema().feature(block.feature_index).immutable == immutable) {
      return block.feature_index;
    }
  }
  std::fprintf(stderr, "fixture lacks a needed feature kind\n");
  std::abort();
}

void TestServedChecks(const Fixture& f, Expectations* t) {
  constexpr size_t n = 8;
  const Matrix x = f.x.SliceRows(0, n);
  const Matrix cf = MakeCounterfactuals(f.encoder, x);
  ServedRows rows;
  rows.Resize(n, x.cols());
  rows.instances = x;
  rows.cfs = cf;
  rows.cfs_raw = cf;
  const std::vector<int> cf_labels = StubLabels(cf);
  const std::vector<int> x_labels = StubLabels(x);
  for (size_t i = 0; i < n; ++i) {
    rows.desired[i] = 1 - x_labels[i];
    rows.predicted[i] = cf_labels[i];
    rows.ok[i] = 1;
    rows.ours[i] = 1;
  }
  cfx::CfResult direct;
  direct.inputs = x.SliceRows(0, 1);
  direct.cfs = cf.SliceRows(0, 1);
  direct.cfs_raw = cf.SliceRows(0, 1);
  direct.desired = {rows.desired[0]};
  direct.predicted = {rows.predicted[0]};

  t->Passes(CheckServedRows(f.encoder, StubLabels, rows), "served rows");
  t->Passes(CheckBitwiseEqual(rows, 0, direct), "served-vs-direct bits");

  const size_t cont = f.encoder.block(
      FirstBlock(f.encoder, FeatureType::kContinuous, false)).offset;
  {
    ServedRows bad = rows;
    uint32_t bits;
    std::memcpy(&bits, &bad.cfs.at(0, cont), sizeof(bits));
    bits ^= 1u;  // Lowest mantissa bit: the value stays in [0, 1].
    std::memcpy(&bad.cfs.at(0, cont), &bits, sizeof(bits));
    t->Rejects(CheckBitwiseEqual(bad, 0, direct), "one flipped bit in a cf");
  }
  {
    ServedRows bad = rows;
    const EncodedBlock& block = f.encoder.block(
        FirstBlock(f.encoder, FeatureType::kBinary, true));
    bad.cfs.at(2, block.offset) = 1.0f - bad.cfs.at(2, block.offset);
    t->Rejects(CheckServedRows(f.encoder, StubLabels, bad),
               "a changed immutable feature");
  }
  {
    ServedRows bad = rows;
    const EncodedBlock& block = f.encoder.block(
        FirstBlock(f.encoder, FeatureType::kCategorical, false));
    for (size_t j = 0; j < block.width; ++j) {
      bad.cfs.at(3, block.offset + j) = 1.0f;
    }
    t->Rejects(CheckServedRows(f.encoder, StubLabels, bad),
               "a one-hot group with several hot values");
  }
  {
    ServedRows bad = rows;
    bad.cfs.at(4, cont) = 1.5f;
    t->Rejects(CheckServedRows(f.encoder, StubLabels, bad),
               "a value outside [0, 1]");
  }
  {
    ServedRows bad = rows;
    bad.predicted[5] = 1 - bad.predicted[5];
    t->Rejects(CheckServedRows(f.encoder, StubLabels, bad),
               "a predicted class the classifier disagrees with");
  }
  {
    ServedRows bad = rows;
    bad.desired[6] = 1 - bad.desired[6];
    t->Rejects(CheckServedRows(f.encoder, StubLabels, bad),
               "a desired class that is not the opposite label");
  }
  {
    ServedRows bad = rows;
    bad.ok[7] = 0;
    t->Rejects(CheckServedRows(f.encoder, StubLabels, bad),
               "a response that is not OK");
  }
}

void TestTableFourChecks(const Fixture& f, Expectations* t) {
  constexpr size_t n = 20;
  cfx::CfResult result;
  result.inputs = f.x.SliceRows(0, n);
  result.cfs = MakeCounterfactuals(f.encoder, result.inputs);
  result.cfs_raw = result.cfs;
  const std::vector<int> x_labels = StubLabels(result.inputs);
  result.predicted = StubLabels(result.cfs);
  for (size_t i = 0; i < n; ++i) result.desired.push_back(1 - x_labels[i]);
  const cfx::MethodMetrics metrics =
      cfx::EvaluateMethod("fixture", f.encoder, f.info(), result);
  const SectionFourD mine =
      RecomputeSectionFourD(f.encoder, StubLabels, result);
  t->Expect(mine.valid > 0 && mine.valid < n,
            "fixture has valid and invalid rows");
  t->Passes(CheckTableFourCell(f.encoder, StubLabels, result.inputs, result,
                               metrics),
            "Table IV cell");

  {
    cfx::MethodMetrics bad = metrics;
    bad.validity += 100.0 / n;
    t->Rejects(CheckTableFourCell(f.encoder, StubLabels, result.inputs, result,
                                  bad),
               "a validity off by one row");
  }
  {
    cfx::MethodMetrics bad = metrics;
    bad.sparsity += 1.0 / n;
    t->Rejects(CheckTableFourCell(f.encoder, StubLabels, result.inputs, result,
                                  bad),
               "a sparsity off by one feature");
  }
  {
    cfx::MethodMetrics bad = metrics;
    bad.continuous_proximity *= 1.0 + 1e-6;
    t->Rejects(CheckTableFourCell(f.encoder, StubLabels, result.inputs, result,
                                  bad),
               "a continuous proximity off by 1e-6");
  }
  {
    cfx::CfResult bad = result;
    bad.predicted[0] = 1 - bad.predicted[0];
    const cfx::MethodMetrics stale =
        cfx::EvaluateMethod("fixture", f.encoder, f.info(), bad);
    t->Rejects(CheckTableFourCell(f.encoder, StubLabels, bad.inputs, bad,
                                  stale),
               "validity from a wrong predicted label");
  }
  t->Rejects(CheckTableFourCell(f.encoder, StubLabels,
                                f.x.SliceRows(0, n + 1), result, metrics),
             "a missing counterfactual");
}

void TestEmbeddingChecks(Expectations* t) {
  // Points on a noisy 2-D plane inside 6-D, labelled by one coordinate:
  // t-SNE keeps their neighbourhoods.
  constexpr size_t n = 300;
  cfx::Rng rng(11);
  Matrix points(n, 6);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    const float u = static_cast<float>(rng.Uniform());
    const float v = static_cast<float>(rng.Uniform());
    const float row[6] = {u, v, u + v, u - v, 0.5f * u, 0.3f * v};
    for (size_t j = 0; j < 6; ++j) {
      points.at(i, j) = row[j] + 1e-3f * static_cast<float>(rng.Normal());
    }
    labels[i] = u > 0.5f ? 1 : 0;
  }
  cfx::TsneConfig config;
  config.iterations = 300;
  cfx::Rng tsne_rng(12);
  const Matrix embedding = cfx::RunTsne(points, config, &tsne_rng);
  const cfx::SeparabilityStats stats =
      cfx::AnalyzeSeparability(embedding, labels, 10);
  t->Passes(CheckEmbedding(points, embedding, labels, stats, 10),
            "t-SNE embedding");

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  const Matrix shuffled = embedding.GatherRows(order);
  t->Rejects(CheckEmbedding(points, shuffled, labels, stats, 10),
             "a shuffled embedding");
  t->Expect(NeighbourOverlap(points, shuffled, 10) <
                kNeighbourOverlapFactor * 10.0 / (n - 1),
            "a shuffled embedding keeps no more neighbours than chance allows");
  {
    cfx::SeparabilityStats bad = stats;
    bad.knn_label_agreement += 1.0 / n;
    t->Rejects(CheckEmbedding(points, embedding, labels, bad, 10),
               "a kNN agreement off by one point");
  }
  {
    Matrix bad = embedding;
    bad.at(5, 1) = std::nanf("");
    t->Rejects(CheckEmbedding(points, bad, labels, stats, 10),
               "a non-finite embedding");
  }
  t->Rejects(
      CheckEmbedding(points, embedding.SliceCols(0, 1), labels, stats, 10),
      "a one-column embedding");
}

}  // namespace

int RunSelfTest() {
  Expectations t;
  TestArithmetic(&t);
  const Fixture fixture;
  TestServedChecks(fixture, &t);
  TestTableFourChecks(fixture, &t);
  TestEmbeddingChecks(&t);
  return t.Finish();
}

}  // namespace e2e
