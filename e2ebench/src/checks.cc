#include "e2ebench/src/checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/common/string_util.h"

namespace e2e {
namespace {

using cfx::EncodedBlock;
using cfx::FeatureType;
using cfx::Matrix;
using cfx::StrFormat;

bool RowsBitwiseEqual(const Matrix& a, size_t ra, const Matrix& b, size_t rb) {
  return a.cols() == b.cols() &&
         std::memcmp(a.data() + ra * a.cols(), b.data() + rb * b.cols(),
                     a.cols() * sizeof(float)) == 0;
}

/// Index of the first largest slot of a categorical block in row r.
size_t BlockArgmax(const Matrix& m, size_t r, const EncodedBlock& block) {
  size_t best = 0;
  for (size_t j = 1; j < block.width; ++j) {
    if (m.at(r, block.offset + j) > m.at(r, block.offset + best)) best = j;
  }
  return best;
}

/// Raw category of a non-continuous feature in row r.
size_t DiscreteValue(const Matrix& m, size_t r, const EncodedBlock& block) {
  if (block.type == FeatureType::kBinary) {
    return m.at(r, block.offset) >= 0.5f ? 1 : 0;
  }
  return BlockArgmax(m, r, block);
}

/// Immutable-feature problems of row r: every slot of an immutable feature
/// must hold the input's exact bits.
void CheckImmutables(const cfx::TabularEncoder& encoder, const Matrix& x,
                     const Matrix& cf, size_t r, const std::string& where,
                     std::vector<std::string>* problems) {
  for (const EncodedBlock& block : encoder.blocks()) {
    if (!encoder.schema().feature(block.feature_index).immutable) continue;
    if (std::memcmp(x.data() + r * x.cols() + block.offset,
                    cf.data() + r * cf.cols() + block.offset,
                    block.width * sizeof(float)) != 0) {
      problems->push_back(StrFormat(
          "%s: immutable feature '%s' changed", where.c_str(),
          encoder.schema().feature(block.feature_index).name.c_str()));
    }
  }
}

double SquaredDistance(const Matrix& m, size_t a, size_t b) {
  double acc = 0.0;
  for (size_t c = 0; c < m.cols(); ++c) {
    const double d = static_cast<double>(m.at(a, c)) - m.at(b, c);
    acc += d * d;
  }
  return acc;
}

/// Indices of the k nearest rows to row i of m (self excluded), unordered.
std::vector<size_t> NearestRows(const Matrix& m, size_t i, size_t k,
                                std::vector<std::pair<double, size_t>>* buf) {
  buf->clear();
  for (size_t j = 0; j < m.rows(); ++j) {
    if (j != i) buf->emplace_back(SquaredDistance(m, i, j), j);
  }
  k = std::min(k, buf->size());
  std::nth_element(buf->begin(), buf->begin() + (k == 0 ? 0 : k - 1),
                   buf->end());
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t t = 0; t < k; ++t) out.push_back((*buf)[t].second);
  return out;
}

}  // namespace

LabelFn FrozenClassifierLabels(cfx::BlackBoxClassifier* classifier) {
  return [classifier](const Matrix& x) {
    cfx::nn::InferWorkspace ws;
    return classifier->Predict(x, &ws);
  };
}

void ServedRows::Resize(size_t rows, size_t width) {
  instances = Matrix(rows, width);
  cfs = Matrix(rows, width);
  cfs_raw = Matrix(rows, width);
  desired.assign(rows, 0);
  predicted.assign(rows, 0);
  ok.assign(rows, 0);
  ours.assign(rows, 0);
}

std::vector<std::string> CheckServedRows(const cfx::TabularEncoder& encoder,
                                         const LabelFn& labels,
                                         const ServedRows& rows) {
  std::vector<std::string> problems;
  const size_t n = rows.size();
  if (n == 0) return problems;
  if (rows.cfs.cols() != encoder.encoded_width()) {
    problems.push_back("served width differs from the encoder's");
    return problems;
  }
  const std::vector<int> cf_labels = labels(rows.cfs);
  const std::vector<int> x_labels = labels(rows.instances);
  for (size_t i = 0; i < n; ++i) {
    const std::string where = StrFormat("response %zu", i);
    if (!rows.ok[i]) {
      problems.push_back(where + ": status not OK");
      continue;
    }
    if (rows.predicted[i] != cf_labels[i]) {
      problems.push_back(StrFormat("%s: predicted %d but the classifier "
                                   "labels the cf %d",
                                   where.c_str(), rows.predicted[i],
                                   cf_labels[i]));
    }
    if (rows.desired[i] != 1 - x_labels[i]) {
      problems.push_back(StrFormat("%s: desired %d but the instance is "
                                   "labelled %d",
                                   where.c_str(), rows.desired[i],
                                   x_labels[i]));
    }
    CheckImmutables(encoder, rows.instances, rows.cfs, i, where, &problems);
    for (size_t c = 0; c < rows.cfs.cols(); ++c) {
      const float v = rows.cfs.at(i, c);
      if (!(v >= 0.0f && v <= 1.0f)) {
        problems.push_back(
            StrFormat("%s: slot %zu holds %g, outside [0, 1]", where.c_str(),
                      c, static_cast<double>(v)));
        break;
      }
    }
    for (const EncodedBlock& block : encoder.blocks()) {
      if (block.type != FeatureType::kCategorical) continue;
      size_t hot = 0, cold = 0;
      for (size_t j = 0; j < block.width; ++j) {
        const float v = rows.cfs.at(i, block.offset + j);
        hot += v == 1.0f;
        cold += v == 0.0f;
      }
      if (hot != 1 || hot + cold != block.width) {
        problems.push_back(StrFormat(
            "%s: one-hot group '%s' has %zu hot of %zu slots", where.c_str(),
            encoder.schema().feature(block.feature_index).name.c_str(), hot,
            block.width));
      }
    }
  }
  return problems;
}

std::vector<std::string> CheckBitwiseEqual(const ServedRows& rows, size_t i,
                                           const cfx::CfResult& direct) {
  std::vector<std::string> problems;
  const std::string where = StrFormat("response %zu", i);
  if (direct.size() != 1) {
    problems.push_back(where + ": direct Generate returned " +
                       std::to_string(direct.size()) + " rows");
    return problems;
  }
  if (!RowsBitwiseEqual(rows.cfs, i, direct.cfs, 0)) {
    problems.push_back(where + ": served cf differs bitwise from Generate");
  }
  if (!RowsBitwiseEqual(rows.cfs_raw, i, direct.cfs_raw, 0)) {
    problems.push_back(where +
                       ": served cf_raw differs bitwise from Generate");
  }
  if (rows.desired[i] != direct.desired[0] ||
      rows.predicted[i] != direct.predicted[0]) {
    problems.push_back(where + ": served classes differ from Generate");
  }
  return problems;
}

SectionFourD RecomputeSectionFourD(const cfx::TabularEncoder& encoder,
                                   const LabelFn& labels,
                                   const cfx::CfResult& result) {
  SectionFourD out;
  out.rows = result.inputs.rows();
  if (out.rows == 0) return out;
  const std::vector<int> cf_labels = labels(result.cfs);
  const std::vector<int> x_labels = labels(result.inputs);
  for (size_t i = 0; i < out.rows; ++i) {
    out.valid += cf_labels[i] == 1 - x_labels[i];
    for (const EncodedBlock& block : encoder.blocks()) {
      if (block.type == FeatureType::kContinuous) {
        // Normalised delta in the encoded (float) space, as §IV-D defines
        // proximity and sparsity on the [0, 1] encoding.
        const float delta = std::fabs(result.cfs.at(i, block.offset) -
                                      result.inputs.at(i, block.offset));
        out.continuous_l1 += delta;
        out.changed_features += delta > kChangeThreshold;
      } else {
        const bool changed = DiscreteValue(result.cfs, i, block) !=
                             DiscreteValue(result.inputs, i, block);
        out.categorical_changes += changed;
        out.changed_features += changed;
      }
    }
  }
  return out;
}

std::vector<std::string> CheckTableFourCell(const cfx::TabularEncoder& encoder,
                                            const LabelFn& labels,
                                            const Matrix& x_eval,
                                            const cfx::CfResult& result,
                                            const cfx::MethodMetrics& metrics) {
  std::vector<std::string> problems;
  const size_t n = x_eval.rows();
  if (result.size() != n || result.cfs.rows() != n ||
      result.desired.size() != n || result.predicted.size() != n) {
    problems.push_back(StrFormat("%zu counterfactuals for %zu eval rows",
                                 result.cfs.rows(), n));
    return problems;
  }
  if (n == 0) return problems;
  if (!(result.inputs == x_eval)) {
    problems.push_back("result inputs differ from the eval rows");
  }
  for (size_t i = 0; i < n; ++i) {
    CheckImmutables(encoder, result.inputs, result.cfs, i,
                    StrFormat("row %zu", i), &problems);
  }
  const SectionFourD mine = RecomputeSectionFourD(encoder, labels, result);
  const double dn = static_cast<double>(n);
  // The program reports per-row means (and validity as a percentage); scale
  // back to totals, which must be whole numbers for the counted metrics.
  auto check_count = [&](const char* what, double reported_total,
                         size_t recomputed) {
    const double rounded = std::round(reported_total);
    if (std::fabs(reported_total - rounded) > 1e-6 ||
        static_cast<size_t>(rounded) != recomputed) {
      problems.push_back(StrFormat("%s: program reports %.6f rows' worth, "
                                   "recomputed %zu",
                                   what, reported_total, recomputed));
    }
  };
  check_count("validity", metrics.validity * dn / 100.0, mine.valid);
  check_count("categorical proximity", -metrics.categorical_proximity * dn,
              mine.categorical_changes);
  check_count("sparsity", metrics.sparsity * dn, mine.changed_features);
  const double reported_l1 = -metrics.continuous_proximity * dn;
  if (std::fabs(reported_l1 - mine.continuous_l1) >
      kSumTolerance * std::max(1.0, std::fabs(mine.continuous_l1))) {
    problems.push_back(StrFormat("continuous proximity: program sum %.12g, "
                                 "recomputed %.12g",
                                 reported_l1, mine.continuous_l1));
  }
  return problems;
}

double NeighbourOverlap(const Matrix& a, const Matrix& b, size_t k) {
  const size_t n = a.rows();
  if (n < 2 || b.rows() != n || k == 0) return 0.0;
  k = std::min(k, n - 1);
  std::vector<std::pair<double, size_t>> buf;
  std::vector<uint8_t> mark(n, 0);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<size_t> na = NearestRows(a, i, k, &buf);
    const std::vector<size_t> nb = NearestRows(b, i, k, &buf);
    for (size_t j : na) mark[j] = 1;
    size_t shared = 0;
    for (size_t j : nb) shared += mark[j];
    for (size_t j : na) mark[j] = 0;
    total += static_cast<double>(shared) / static_cast<double>(k);
  }
  return total / static_cast<double>(n);
}

std::vector<std::string> CheckEmbedding(const Matrix& input,
                                        const Matrix& embedding,
                                        const std::vector<int>& labels,
                                        const cfx::SeparabilityStats& stats,
                                        size_t k) {
  std::vector<std::string> problems;
  const size_t n = input.rows();
  if (embedding.rows() != n || embedding.cols() != 2 || labels.size() != n) {
    problems.push_back(StrFormat("embedding is %zu x %zu for %zu points",
                                 embedding.rows(), embedding.cols(), n));
    return problems;
  }
  if (!embedding.AllFinite()) {
    problems.push_back("embedding holds a non-finite value");
    return problems;
  }
  if (n < 3) return problems;
  k = std::min(k, n - 1);

  // kNN majority-vote agreement, brute force over exact double distances.
  // A point whose k-th and (k+1)-th neighbours are tied within float
  // rounding may legitimately vote either way; it widens [lo, hi].
  size_t agree_lo = 0, agree_hi = 0;
  std::vector<std::pair<double, size_t>> d;
  for (size_t i = 0; i < n; ++i) {
    d.clear();
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      d.emplace_back(std::sqrt(SquaredDistance(embedding, i, j)), j);
    }
    std::nth_element(d.begin(), d.begin() + (k - 1), d.end());
    const double kth = d[k - 1].first;
    const double eps = 1e-5 * kth + 1e-12;
    size_t inside = 0, same_inside = 0, tied_same = 0, tied_other = 0;
    for (const auto& [dist, j] : d) {
      const bool same = labels[j] == labels[i];
      if (dist < kth - eps) {
        ++inside;
        same_inside += same;
      } else if (dist <= kth + eps) {
        (same ? tied_same : tied_other) += 1;
      }
    }
    const size_t take = k - inside;  // Drawn from the tied band.
    const size_t same_min =
        same_inside + (take > tied_other ? take - tied_other : 0);
    const size_t same_max = same_inside + std::min(take, tied_same);
    agree_lo += same_min * 2 > k;
    agree_hi += same_max * 2 > k;
  }
  const double reported = stats.knn_label_agreement * static_cast<double>(n);
  const double rounded = std::round(reported);
  if (std::fabs(reported - rounded) > 1e-6 ||
      rounded < static_cast<double>(agree_lo) ||
      rounded > static_cast<double>(agree_hi)) {
    problems.push_back(StrFormat(
        "kNN label agreement: program %.6f of %zu points, brute force "
        "[%zu, %zu]",
        stats.knn_label_agreement, n, agree_lo, agree_hi));
  }

  const double overlap = NeighbourOverlap(input, embedding, k);
  const double random = static_cast<double>(k) / static_cast<double>(n - 1);
  if (overlap < kNeighbourOverlapFactor * random) {
    problems.push_back(StrFormat(
        "%zu-NN overlap %.4f is not far above the random %.4f", k, overlap,
        random));
  }
  return problems;
}

}  // namespace e2e
