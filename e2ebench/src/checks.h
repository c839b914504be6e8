// Output checks of the end-to-end benchmark. Each check recomputes what it
// compares from the outputs and an independent source (fresh classifier
// labels, the benchmark's own §IV-D arithmetic, a brute-force neighbour
// search) or tests a property the method must have; none of them trusts a
// value the program reports about itself.
//
// Every check returns the list of problems it found; empty means pass.
#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/cf_example.h"
#include "src/data/encoder.h"
#include "src/manifold/density.h"
#include "src/metrics/metrics.h"
#include "src/models/classifier.h"
#include "src/tensor/matrix.h"

namespace e2e {

/// Hard labels of the frozen black box for every row of a batch.
using LabelFn = std::function<std::vector<int>(const cfx::Matrix&)>;

/// Fresh labels from `classifier` (borrowed, frozen) on a private inference
/// workspace: never served from the PredictionCache, and safe beside
/// server workers using the same model.
LabelFn FrozenClassifierLabels(cfx::BlackBoxClassifier* classifier);

/// Responses captured by one client for one model, row-aligned: row i of
/// each matrix and entry i of each vector belong to the same request.
struct ServedRows {
  cfx::Matrix instances;       ///< Encoded inputs as submitted.
  cfx::Matrix cfs;             ///< Served projected counterfactuals.
  cfx::Matrix cfs_raw;         ///< Served unprojected generator outputs.
  std::vector<int> desired;
  std::vector<int> predicted;
  std::vector<uint8_t> ok;     ///< Response status was OK.
  std::vector<uint8_t> ours;   ///< Served by the paper's generator.

  /// Sizes every field for `rows` requests of width `width`.
  void Resize(size_t rows, size_t width);
  size_t size() const { return ok.size(); }
};

/// Per-response checks of served counterfactuals:
///  * the response status is OK;
///  * `predicted` equals `labels(cf)` and `desired` equals
///    1 - labels(instance);
///  * immutable features are bitwise unchanged, every one-hot group has
///    exactly one hot value (1 in one slot, 0 in the rest), and every value
///    lies in [0, 1].
std::vector<std::string> CheckServedRows(const cfx::TabularEncoder& encoder,
                                         const LabelFn& labels,
                                         const ServedRows& rows);

/// The serving contract for row `i`: the served cf and cf_raw are bitwise
/// equal to `direct`, a single-row Generate of the same instance, and the
/// class fields agree.
std::vector<std::string> CheckBitwiseEqual(const ServedRows& rows, size_t i,
                                           const cfx::CfResult& direct);

/// §IV-D quantities of a CF batch, recomputed by the benchmark: counts are
/// exact integers, the continuous L1 sum is a double.
struct SectionFourD {
  size_t rows = 0;
  size_t valid = 0;            ///< Rows whose fresh cf label is the
                               ///< opposite of the fresh input label.
  size_t categorical_changes = 0;  ///< Categorical/binary features changed.
  size_t changed_features = 0;     ///< Sparsity numerator.
  double continuous_l1 = 0.0;      ///< Sum of |cf - x| over continuous slots.
};

/// A continuous feature counts as changed beyond this normalised delta —
/// the §IV-D sparsity dead-zone, the same constant MetricsConfig uses.
constexpr double kChangeThreshold = 0.05;

/// Relative tolerance on the continuous proximity sum: the program divides
/// by the row count and the check multiplies back.
constexpr double kSumTolerance = 1e-9;

/// Recomputes the §IV-D quantities of `result` with fresh labels.
SectionFourD RecomputeSectionFourD(const cfx::TabularEncoder& encoder,
                                   const LabelFn& labels,
                                   const cfx::CfResult& result);

/// Table IV cell checks: one counterfactual per row of `x_eval` (inputs
/// bitwise equal to it), immutable features unchanged, and `metrics`
/// (EvaluateMethod's row) matching the recomputation — validity, categorical
/// proximity and sparsity as exact counts, continuous proximity within
/// kSumTolerance.
std::vector<std::string> CheckTableFourCell(const cfx::TabularEncoder& encoder,
                                            const LabelFn& labels,
                                            const cfx::Matrix& x_eval,
                                            const cfx::CfResult& result,
                                            const cfx::MethodMetrics& metrics);

/// A random embedding keeps on average k/(N-1) of a point's k nearest
/// neighbours; a t-SNE embedding must keep at least this many times more.
constexpr double kNeighbourOverlapFactor = 5.0;

/// Manifold panel checks: `embedding` is finite and N x 2; the kNN label
/// agreement recomputed by brute force equals `stats.knn_label_agreement`
/// (points whose k-th neighbour is tied within float rounding may vote
/// either way); and the mean k-NN overlap between `input` and `embedding`
/// is at least kNeighbourOverlapFactor * k / (N - 1).
std::vector<std::string> CheckEmbedding(const cfx::Matrix& input,
                                        const cfx::Matrix& embedding,
                                        const std::vector<int>& labels,
                                        const cfx::SeparabilityStats& stats,
                                        size_t k);

/// Mean fraction of each point's k nearest neighbours in `a` that are also
/// among its k nearest in `b` (brute force, Euclidean, self excluded).
double NeighbourOverlap(const cfx::Matrix& a, const cfx::Matrix& b, size_t k);

}  // namespace e2e

#endif  // E2EBENCH_CHECKS_H_
