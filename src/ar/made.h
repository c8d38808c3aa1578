#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ar/model_schema.h"
#include "autodiff/ops.h"
#include "autodiff/tensor.h"
#include "common/random.h"
#include "common/result.h"

namespace sam {

/// \brief MADE (Masked Autoencoder for Distribution Estimation) over the
/// model schema's one-hot column layout.
///
/// The network maps a (partially filled) one-hot tuple encoding to per-column
/// logits; binary masks on every weight matrix enforce the autoregressive
/// property, so column i's logits depend only on columns < i (Germain et al.,
/// cited by the paper as a SAM instantiation).
///
/// Two forward paths are provided, both causal column sweeps that compute
/// each hidden unit once per sweep (a unit of degree d reads only columns
/// < d, so its value is final once those are observed):
///  * a tape-recorded sweep (`MaskedWeights` + `Sweep` +
///    `ColumnPass`/`WriteSample`) used by the DPS trainer, and
///  * an allocation-light sampler path (`InitState`/`CondProbs`/`Observe`)
///    that exploits one-hot inputs (first layer and direct connections become
///    row gathers) for progressive sampling, estimation and generation.
class MadeModel {
 public:
  struct Options {
    std::vector<size_t> hidden_sizes = {64, 64};
    /// ResMADE-style residual connections between equal-width hidden layers
    /// (used by NeuroCard, which the paper builds on). Helps deeper stacks
    /// converge under DPS.
    bool residual = false;
    uint64_t seed = 12345;
  };

  MadeModel(const ModelSchema* schema, Options options);

  const ModelSchema& schema() const { return *schema_; }
  const Options& options() const { return options_; }

  /// Trainable parameters (for the optimiser).
  std::vector<ad::Tensor> params() const;

  /// Number of scalar parameters (reported by the harnesses).
  size_t num_parameters() const;

  // --- Causal (training) path -----------------------------------------------

  /// One training shard's private trainable leaves: the masked weights and
  /// the biases as of the current parameters, with every hidden layer's
  /// units sorted stably by degree (equal-width layers get the same order,
  /// so residual skips still line up). Build once per shard and step so
  /// gradients accumulate across the column passes; shards running
  /// concurrently never share a gradient buffer. `ReduceGrads` hands the
  /// gradients back to the parameters in their stored order.
  struct MaskedWeights {
    std::vector<ad::Tensor> w;   ///< Per layer (first is input layer).
    std::vector<ad::Tensor> b;   ///< Per-layer biases.
    ad::Tensor w_out;
    ad::Tensor b_out;
    ad::Tensor w_direct;
  };
  MaskedWeights BuildMaskedWeights() const;

  /// Sets rows [row_begin, row_end) of the gradient of parameter `param`
  /// (`params()` order) to the sum of the `shards`' leaf gradients, summed in
  /// shard order from +0.0, un-permuted and passed through the
  /// autoregressive mask (the chain rule of w * mask). A leaf with no
  /// gradient adds nothing. Rows count in the leaves' (degree-sorted) order:
  /// disjoint ranges write disjoint parameter rows, so they may run
  /// concurrently, and the sum never depends on the thread schedule. The
  /// parameter's gradient buffer must be allocated (`ad::Tensor::ZeroGrad`).
  void ReduceGrads(std::span<const MaskedWeights> shards, size_t param,
                   size_t row_begin, size_t row_end);

  /// One causal sweep's progressive buffers (`ad::ProgressiveBuffer`), each a
  /// B x width value matrix and its gradient, filled in place: the one-hot
  /// input (B x total_domain), filled for the columns whose samples were
  /// written, and per hidden layer the running activations (B x H_l, in the
  /// `MaskedWeights` unit order), filled for the units of degree <= the last
  /// column passed. Start one with `StartSweep`.
  struct Sweep {
    ad::ProgressiveBuffer input;
    std::vector<ad::ProgressiveBuffer> hidden;
    size_t col = 0;  ///< The column the next `ColumnPass` computes.
  };

  /// A sweep over `batch` rows at column 0, every buffer zero.
  Sweep StartSweep(size_t batch) const;

  /// Logits of column `sweep->col` (B x domain(col)); advances the sweep.
  /// The samples of every column before `col` must have been written
  /// (`WriteSample`): the pass reads the input's prefix [0, offset(col)) in
  /// place, and its gradient flows to those samples only.
  ///
  /// A hidden unit of degree k reads only columns < k, so its value is final
  /// from pass k on, and the logits of column c read only units of degree
  /// <= c. Each pass therefore computes just the units of degree `col` in
  /// every layer, once per sweep, from the live prefix of the layer below,
  /// and writes them into their slot of the layer's buffer: a sweep over
  /// all columns costs one forward of the hidden stack, and no pass
  /// allocates a B x width matrix or multiplies past a buffer's live prefix.
  ad::Tensor ColumnPass(const MaskedWeights& mw, Sweep* sweep) const;

  /// Writes `sample` (B x domain), the one-hot sample of the column the last
  /// `ColumnPass` computed, into the sweep's input.
  void WriteSample(Sweep* sweep, const ad::Tensor& sample) const;

  // --- Sampler (no-grad) path ------------------------------------------------

  /// Refreshes the cached masked weight matrices used by the sampler path.
  /// Call after training (the trainer does this automatically).
  void SyncSamplerWeights();

  /// Per-batch incremental state: first-layer pre-activations accumulate as
  /// columns are observed, the observed one-hot units are recorded for the
  /// direct connections, and each hidden layer's activations fill in by
  /// degree as `CondProbs` walks the columns.
  struct SamplerState {
    Matrix pre1;           ///< B x H1 (bias included).
    size_t batch = 0;
    /// One-hot input unit (offset + code) of every observed column, in
    /// observation order: units[k * batch + r] is row r's unit of the k-th
    /// observed column. CondProbs sums the direct weights of these units for
    /// the column in flight only, so the state holds O(B x columns) here
    /// instead of a B x total_domain accumulator.
    std::vector<uint32_t> units;
    size_t observed = 0;   ///< Columns recorded in `units`.
    /// Per hidden layer, B x H_l activations in natural unit order. The
    /// units of degree <= `computed` hold their values for the observed
    /// prefix; the last layer's other units are +0, the deeper layers'
    /// others are stale and never read. `mutable`, like the scratch below,
    /// because they cache work derived from the observations, not part of
    /// the state's logical value; a state belongs to one sampler thread at
    /// a time, so the batch-parallel samplers never share one.
    mutable std::vector<Matrix> hidden;
    /// Highest hidden-unit degree computed. CondProbs(col) raises it to
    /// col; Observe(col) lowers it to col, since every unit of a higher
    /// degree reads that column.
    mutable size_t computed = 0;
    /// Forward-pass scratch owned by the state so CondProbs allocates nothing
    /// per call (at generation batch sizes a fresh Matrix is an mmap + page
    /// faults + munmap every forward).
    mutable Matrix direct;  ///< Direct logits of the column (B x domain).
    mutable Matrix probs;   ///< CondProbs result (B x domain(col)).
  };

  /// A state for batches of up to `batch` rows with its buffers pre-sized
  /// (`pre1` and one activation matrix per hidden layer at that layer's
  /// width, `direct`/`probs` at the largest domain, `units` for every
  /// column), so no later ResetState, Observe or CondProbs call on it grows
  /// a buffer. The parallel FOJ samplers build one per worker on the calling
  /// thread before dispatch: scratch first allocated on a worker lands in
  /// that thread's malloc arena, which keeps it after the batch is freed.
  SamplerState InitState(size_t batch) const;

  /// Re-initialises `state` for a fresh batch of `batch` rows, reusing its
  /// allocations: pre1 returns to the first-layer bias, the last hidden
  /// layer to +0, and no column is observed. The batched estimator re-enters
  /// with the same per-block state every call — fresh InitState matrices
  /// would be an mmap + page faults + munmap per round at serving batch
  /// sizes.
  void ResetState(SamplerState* state, size_t batch) const;

  /// Conditional distribution P(col | observed prefix) for every batch row:
  /// B x domain(col), rows sum to 1. The returned reference points into
  /// `state` scratch — it is valid until the next CondProbs call on the same
  /// state (copy it to keep it longer).
  ///
  /// Cost: the hidden units of degrees (state.computed, col] in each layer,
  /// bottom up, then the output slice and direct logits of `col`. Layer 1
  /// is a ReLU of `pre1`; a deeper layer's degree-c units multiply the
  /// units below of degree <= c by a weight block gathered in
  /// SyncSamplerWeights. An in-order sweep over every column so costs one
  /// forward of the hidden stack, and a call for a column already computed
  /// costs no hidden work at all. Each sum runs k-ascending in natural unit
  /// order and skips only terms whose masked weight is ±0, so the result
  /// is bit-identical to a dense forward of the whole stack — except that
  /// the dense product turned an inf or NaN activation of a unit that is
  /// not final yet into NaN through its ±0 weight, and this path never
  /// forms that product.
  const Matrix& CondProbs(const SamplerState& state, size_t col) const;

  /// Feeds the sampled codes of `col` into the state: first-layer
  /// pre-activations and the recorded direct-connection units. Lowers
  /// `state->computed` to `col` (zeroing the last layer's units above it),
  /// so a call order outside the column sweep stays exact.
  void Observe(SamplerState* state, size_t col,
               std::span<const int32_t> codes) const;

  // --- Persistence -----------------------------------------------------------

  /// Saves/loads raw parameters (binary, versioned header).
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  /// Parameter `param` (`params()` order) as its `MaskedWeights` leaf sees
  /// it: leaf entry (i, j) is the parameter's entry (rows[i], cols[j]) times
  /// the mask there. A null order is the identity, a null mask all ones.
  struct ParamLayout {
    const ad::Tensor* param = nullptr;
    const Matrix* mask = nullptr;
    const std::vector<size_t>* rows = nullptr;
    const std::vector<size_t>* cols = nullptr;
  };
  ParamLayout Layout(size_t param) const;

  void BuildMasks();
  void InitParams();

  const ModelSchema* schema_;
  Options options_;

  /// Per-unit autoregressive degree of each hidden layer.
  std::vector<std::vector<size_t>> hidden_degrees_;
  /// Per hidden layer, the stored unit at each position of the
  /// degree-sorted `MaskedWeights` order.
  std::vector<std::vector<size_t>> unit_order_;
  /// degree_end_[l][c]: the number of layer-l units of degree <= c, for
  /// columns c in [0, num_columns); the degree-c units sit at positions
  /// [degree_end_[l][c - 1], degree_end_[l][c]) of the sorted order.
  std::vector<std::vector<size_t>> degree_end_;

  // Parameters. weights_[0] is input->hidden1; weights_[k] hidden_k->k+1.
  std::vector<ad::Tensor> weights_;
  std::vector<ad::Tensor> biases_;
  ad::Tensor w_out_;
  ad::Tensor b_out_;
  ad::Tensor w_direct_;

  // Constant binary masks matching weights_ / w_out_ / w_direct_.
  std::vector<Matrix> masks_;
  Matrix mask_out_;
  Matrix mask_direct_;

  /// One (layer, degree c) step of the sampler's causal forward. `units`
  /// are the layer's units of degree c, `rows` the layer below's units of
  /// degree <= c, both in natural order; `w` holds the masked weights
  /// (rows[k], units[j]) at (k, j), its columns zero-padded to a multiple
  /// of kBlockLanes. Layer 1 has no `rows` or `w`: it reads `pre1`.
  struct SamplerBlock {
    std::vector<uint32_t> units;
    std::vector<uint32_t> rows;
    Matrix w;
  };
  static constexpr size_t kBlockLanes = 4;
  void ComputeBlock(const SamplerState& state, size_t layer,
                    const SamplerBlock& blk) const;

  // Sampler cache: masked weight values, and per hidden layer the blocks
  // of degrees [0, num_columns) (degree 0 is always empty).
  Matrix cached_w_in_;
  std::vector<std::vector<SamplerBlock>> sampler_blocks_;
  Matrix cached_w_out_;
  Matrix cached_w_direct_;
  bool sampler_synced_ = false;
};

}  // namespace sam
