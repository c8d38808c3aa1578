#include "ar/made.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "autodiff/ops.h"
#include "common/logging.h"
#include "linalg/kernels.h"
#include "obs/metrics_registry.h"
#include "storage/artifact_io.h"

namespace sam {

using ad::Tensor;

MadeModel::MadeModel(const ModelSchema* schema, Options options)
    : schema_(schema), options_(std::move(options)) {
  SAM_CHECK_GT(schema_->num_columns(), 0u);
  SAM_CHECK(!options_.hidden_sizes.empty());
  BuildMasks();
  InitParams();
}

void MadeModel::BuildMasks() {
  const auto& cols = schema_->columns();
  const size_t n = cols.size();
  const size_t d_in = schema_->total_domain();

  // Per-unit degrees. Input unit of column i has degree i+1 (1-based column
  // number); hidden degrees cycle over 1..n-1 so every conditional is
  // representable; output unit of column i has degree i+1 and connects to
  // hidden units with *strictly smaller* degree.
  std::vector<size_t> in_degree(d_in);
  for (size_t c = 0; c < n; ++c) {
    for (size_t j = 0; j < cols[c].domain_size; ++j) {
      in_degree[cols[c].offset + j] = c + 1;
    }
  }
  const size_t max_deg = n > 1 ? n - 1 : 1;
  hidden_degrees_.clear();
  for (size_t hs : options_.hidden_sizes) {
    std::vector<size_t> deg(hs);
    for (size_t k = 0; k < hs; ++k) deg[k] = 1 + (k % max_deg);
    hidden_degrees_.push_back(std::move(deg));
  }

  // The training layout: units sorted stably by degree. Degrees depend on
  // the layer width only, so equal-width layers get the same order.
  unit_order_.clear();
  degree_end_.clear();
  for (const auto& deg : hidden_degrees_) {
    std::vector<size_t> order(deg.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return deg[a] < deg[b]; });
    unit_order_.push_back(std::move(order));
    std::vector<size_t> end(n, 0);
    for (size_t d : deg) {
      if (d < n) ++end[d];
    }
    for (size_t c = 1; c < n; ++c) end[c] += end[c - 1];
    degree_end_.push_back(std::move(end));
  }

  masks_.clear();
  // Input -> hidden1: connect when hidden degree >= input degree.
  {
    const auto& hdeg = hidden_degrees_[0];
    Matrix m(d_in, hdeg.size());
    for (size_t i = 0; i < d_in; ++i) {
      for (size_t h = 0; h < hdeg.size(); ++h) {
        if (hdeg[h] >= in_degree[i]) m(i, h) = 1.0;
      }
    }
    masks_.push_back(std::move(m));
  }
  // Hidden -> hidden: connect when next degree >= previous degree.
  for (size_t l = 1; l < hidden_degrees_.size(); ++l) {
    const auto& prev = hidden_degrees_[l - 1];
    const auto& next = hidden_degrees_[l];
    Matrix m(prev.size(), next.size());
    for (size_t i = 0; i < prev.size(); ++i) {
      for (size_t h = 0; h < next.size(); ++h) {
        if (next[h] >= prev[i]) m(i, h) = 1.0;
      }
    }
    masks_.push_back(std::move(m));
  }
  // Last hidden -> output: connect when output degree > hidden degree.
  {
    const auto& hdeg = hidden_degrees_.back();
    mask_out_ = Matrix(hdeg.size(), d_in);
    for (size_t h = 0; h < hdeg.size(); ++h) {
      for (size_t c = 0; c < n; ++c) {
        if (c + 1 > hdeg[h]) {
          for (size_t j = 0; j < cols[c].domain_size; ++j) {
            mask_out_(h, cols[c].offset + j) = 1.0;
          }
        }
      }
    }
  }
  // Direct input -> output connections (as in Naru's MADE): strictly
  // earlier columns only.
  mask_direct_ = Matrix(d_in, d_in);
  for (size_t ci = 0; ci < n; ++ci) {
    for (size_t co = ci + 1; co < n; ++co) {
      for (size_t j = 0; j < cols[ci].domain_size; ++j) {
        for (size_t k = 0; k < cols[co].domain_size; ++k) {
          mask_direct_(cols[ci].offset + j, cols[co].offset + k) = 1.0;
        }
      }
    }
  }
}

void MadeModel::InitParams() {
  Rng rng(options_.seed);
  auto init = [&](size_t rows, size_t cols_n) {
    Matrix m(rows, cols_n);
    const double scale = 1.0 / std::sqrt(static_cast<double>(rows));
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Normal() * scale;
    return m;
  };
  const size_t d = schema_->total_domain();
  weights_.clear();
  biases_.clear();
  size_t prev = d;
  for (size_t hs : options_.hidden_sizes) {
    weights_.push_back(Tensor::Param(init(prev, hs)));
    biases_.push_back(Tensor::Param(Matrix(1, hs)));
    prev = hs;
  }
  w_out_ = Tensor::Param(init(prev, d));
  b_out_ = Tensor::Param(Matrix(1, d));
  w_direct_ = Tensor::Param(init(d, d));
  sampler_synced_ = false;
}

std::vector<Tensor> MadeModel::params() const {
  std::vector<Tensor> out;
  for (const auto& w : weights_) out.push_back(w);
  for (const auto& b : biases_) out.push_back(b);
  out.push_back(w_out_);
  out.push_back(b_out_);
  out.push_back(w_direct_);
  return out;
}

size_t MadeModel::num_parameters() const {
  size_t total = 0;
  for (const auto& p : params()) total += p.value().size();
  return total;
}

namespace {

Matrix Masked(const Tensor& w, const Matrix& mask) {
  Matrix m = w.value();
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] *= mask.data()[i];
  return m;
}

}  // namespace

MadeModel::ParamLayout MadeModel::Layout(size_t param) const {
  const size_t layers = weights_.size();
  if (param < layers) {
    return {&weights_[param], &masks_[param],
            param == 0 ? nullptr : &unit_order_[param - 1],
            &unit_order_[param]};
  }
  if (param < 2 * layers) {
    return {&biases_[param - layers], nullptr, nullptr,
            &unit_order_[param - layers]};
  }
  if (param == 2 * layers) {
    return {&w_out_, &mask_out_, &unit_order_.back(), nullptr};
  }
  if (param == 2 * layers + 1) return {&b_out_, nullptr, nullptr, nullptr};
  SAM_CHECK_EQ(param, 2 * layers + 2);
  return {&w_direct_, &mask_direct_, nullptr, nullptr};
}

namespace {

/// The leaf of parameter `param` (`params()` order) in `mw`.
const Tensor& Leaf(const MadeModel::MaskedWeights& mw, size_t param) {
  const size_t layers = mw.w.size();
  if (param < layers) return mw.w[param];
  if (param < 2 * layers) return mw.b[param - layers];
  if (param == 2 * layers) return mw.w_out;
  if (param == 2 * layers + 1) return mw.b_out;
  return mw.w_direct;
}

}  // namespace

MadeModel::MaskedWeights MadeModel::BuildMaskedWeights() const {
  const size_t layers = weights_.size();
  // Permutes as it masks: one pass over every weight, as a plain masked
  // copy would take.
  auto leaf = [&](size_t param) {
    const ParamLayout p = Layout(param);
    const Matrix& w = p.param->value();
    Matrix out(w.rows(), w.cols());
    for (size_t i = 0; i < w.rows(); ++i) {
      const size_t r = p.rows != nullptr ? (*p.rows)[i] : i;
      const double* src = w.row(r);
      const double* m = p.mask != nullptr ? p.mask->row(r) : nullptr;
      double* dst = out.row(i);
      for (size_t j = 0; j < w.cols(); ++j) {
        const size_t c = p.cols != nullptr ? (*p.cols)[j] : j;
        dst[j] = m != nullptr ? src[c] * m[c] : src[c];
      }
    }
    return Tensor::Param(std::move(out));
  };
  MaskedWeights mw;
  for (size_t l = 0; l < layers; ++l) mw.w.push_back(leaf(l));
  for (size_t l = 0; l < layers; ++l) mw.b.push_back(leaf(layers + l));
  mw.w_out = leaf(2 * layers);
  mw.b_out = leaf(2 * layers + 1);
  mw.w_direct = leaf(2 * layers + 2);
  return mw;
}

void MadeModel::ReduceGrads(std::span<const MaskedWeights> shards,
                            size_t param, size_t row_begin, size_t row_end) {
  const ParamLayout p = Layout(param);
  ad::TensorNode& node = *p.param->node();
  SAM_CHECK_EQ(node.grad.size(), node.value.size())
      << "ReduceGrads needs an allocated gradient buffer";
  SAM_CHECK_LE(row_end, node.value.rows());
  const size_t cols = node.value.cols();
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t r = p.rows != nullptr ? (*p.rows)[i] : i;
    double* dst = node.grad.row(r);
    const double* m = p.mask != nullptr ? p.mask->row(r) : nullptr;
    std::fill(dst, dst + cols, 0.0);
    for (const MaskedWeights& mw : shards) {
      const Matrix& g = Leaf(mw, param).grad();
      if (g.size() != node.value.size()) continue;  // No gradient reached it.
      const double* src = g.row(i);
      if (p.cols == nullptr && m == nullptr) {
        for (size_t j = 0; j < cols; ++j) dst[j] += src[j];
      } else if (p.cols == nullptr) {
        for (size_t j = 0; j < cols; ++j) dst[j] += src[j] * m[j];
      } else if (m == nullptr) {
        for (size_t j = 0; j < cols; ++j) dst[(*p.cols)[j]] += src[j];
      } else {
        for (size_t j = 0; j < cols; ++j) {
          const size_t c = (*p.cols)[j];
          dst[c] += src[j] * m[c];
        }
      }
    }
  }
}

MadeModel::Sweep MadeModel::StartSweep(size_t batch) const {
  Sweep sweep;
  sweep.input = ad::ProgressiveBuffer(batch, schema_->total_domain());
  for (size_t hs : options_.hidden_sizes) {
    sweep.hidden.emplace_back(batch, hs);
  }
  return sweep;
}

Tensor MadeModel::ColumnPass(const MaskedWeights& mw, Sweep* sweep) const {
  const size_t col = sweep->col++;
  SAM_CHECK_LT(col, schema_->num_columns());
  const ModelColumn& mc = schema_->columns()[col];
  // The degree-`col` units of each layer, bottom up. `group` holds the
  // layer below's, the skip input of a residual layer.
  Tensor group;
  for (size_t l = 0; l < mw.w.size(); ++l) {
    const size_t begin = col == 0 ? 0 : degree_end_[l][col - 1];
    const size_t end = degree_end_[l][col];
    if (begin == end) continue;
    // Layer 1 reads the input of columns < col; a deeper layer reads the
    // units of degree <= col below it, which are the ones computed so far.
    const ad::ProgressiveBuffer& below =
        l == 0 ? sweep->input : sweep->hidden[l - 1];
    const size_t live = l == 0 ? mc.offset : degree_end_[l - 1][col];
    Tensor pre = ad::MatmulPrefix(below, ad::SliceColumns(mw.w[l], begin, end),
                                  live);
    Tensor bias = ad::SliceColumns(mw.b[l], begin, end);
    // Residual connections between equal-width hidden layers (ResMADE).
    // Equal widths have equal degrees and so the same unit order: the skip
    // is the layer below's group. The fused op does relu(pre + bias)
    // (+ skip) in one pass over the activations.
    if (options_.residual && l > 0 &&
        options_.hidden_sizes[l] == options_.hidden_sizes[l - 1]) {
      group = ad::BiasReluSkip(pre, bias, group);
    } else {
      group = ad::BiasRelu(pre, bias);
    }
    sweep->hidden[l].Write(group, begin);
  }
  // Column `col` reads the last layer's units of degree <= col and the
  // direct connections of the input columns before it.
  const size_t b = mc.offset;
  const size_t e = mc.offset + mc.domain_size;
  Tensor logits = ad::AddRowBroadcast(
      ad::MatmulPrefix(sweep->hidden.back(), ad::SliceColumns(mw.w_out, b, e),
                       degree_end_.back()[col]),
      ad::SliceColumns(mw.b_out, b, e));
  return ad::Add(logits, ad::MatmulPrefix(
                             sweep->input,
                             ad::SliceColumns(mw.w_direct, b, e), b));
}

void MadeModel::WriteSample(Sweep* sweep, const Tensor& sample) const {
  SAM_CHECK_GT(sweep->col, 0u) << "no column passed yet";
  const ModelColumn& mc = schema_->columns()[sweep->col - 1];
  SAM_CHECK_EQ(sample.cols(), mc.domain_size);
  sweep->input.Write(sample, mc.offset);
}

void MadeModel::SyncSamplerWeights() {
  const size_t n = schema_->num_columns();
  cached_w_in_ = Masked(weights_[0], masks_[0]);
  sampler_blocks_.assign(weights_.size(), std::vector<SamplerBlock>(n));
  for (size_t l = 0; l < weights_.size(); ++l) {
    const std::vector<size_t>& deg = hidden_degrees_[l];
    for (size_t c = 1; c < n; ++c) {
      SamplerBlock& blk = sampler_blocks_[l][c];
      for (size_t u = 0; u < deg.size(); ++u) {
        if (deg[u] == c) blk.units.push_back(static_cast<uint32_t>(u));
      }
      if (l == 0 || blk.units.empty()) continue;
      const std::vector<size_t>& below = hidden_degrees_[l - 1];
      for (size_t k = 0; k < below.size(); ++k) {
        if (below[k] <= c) blk.rows.push_back(static_cast<uint32_t>(k));
      }
      // Every (rows[k], units[j]) entry is unmasked: degree units[j] = c >=
      // degree rows[k]. The entries left out are exactly the masked ones.
      const Matrix& w = weights_[l].value();
      const size_t lanes =
          (blk.units.size() + kBlockLanes - 1) / kBlockLanes * kBlockLanes;
      blk.w = Matrix(blk.rows.size(), lanes);
      for (size_t k = 0; k < blk.rows.size(); ++k) {
        for (size_t j = 0; j < blk.units.size(); ++j) {
          blk.w(k, j) = w(blk.rows[k], blk.units[j]);
        }
      }
    }
  }
  cached_w_out_ = Masked(w_out_, mask_out_);
  cached_w_direct_ = Masked(w_direct_, mask_direct_);
  sampler_synced_ = true;
}

MadeModel::SamplerState MadeModel::InitState(size_t batch) const {
  SamplerState s;
  size_t max_domain = 0;
  for (const ModelColumn& mc : schema_->columns()) {
    max_domain = std::max(max_domain, mc.domain_size);
  }
  for (size_t hs : options_.hidden_sizes) s.hidden.emplace_back(batch, hs);
  s.probs.Reshape(batch, max_domain);
  s.direct.Reshape(batch, max_domain);
  s.units.reserve(batch * schema_->num_columns());
  ResetState(&s, batch);
  return s;
}

void MadeModel::ResetState(SamplerState* state, size_t batch) const {
  SAM_CHECK(sampler_synced_) << "call SyncSamplerWeights() before sampling";
  state->batch = batch;
  const size_t h1 = options_.hidden_sizes[0];
  state->pre1.Reshape(batch, h1);
  const double* bias = biases_[0].value().data();
  for (size_t r = 0; r < batch; ++r) {
    std::copy(bias, bias + h1, state->pre1.row(r));
  }
  state->hidden.resize(options_.hidden_sizes.size());
  for (size_t l = 0; l < state->hidden.size(); ++l) {
    state->hidden[l].Reshape(batch, options_.hidden_sizes[l]);
  }
  // The output slice reads the last layer at full width: its units that are
  // not computed yet must be +0. The deeper layers are read only at degrees
  // <= `computed`, so their stale values may stay.
  Matrix& last = state->hidden.back();
  std::fill(last.data(), last.data() + last.size(), 0.0);
  state->computed = 0;
  state->units.clear();
  state->observed = 0;
}

void MadeModel::ComputeBlock(const SamplerState& state, size_t layer,
                             const SamplerBlock& blk) const {
  const size_t nu = blk.units.size();
  if (nu == 0) return;
  Matrix& out = state.hidden[layer];
  if (layer == 0) {
    for (size_t r = 0; r < state.batch; ++r) {
      const double* pre = state.pre1.row(r);
      double* o = out.row(r);
      for (uint32_t u : blk.units) o[u] = std::max(0.0, pre[u]);
    }
    return;
  }
  const Matrix& below = state.hidden[layer - 1];
  const double* bias = biases_[layer].value().data();
  const bool skip = options_.residual && options_.hidden_sizes[layer] ==
                                             options_.hidden_sizes[layer - 1];
  const size_t nk = blk.rows.size();
  const size_t stride = blk.w.cols();
  for (size_t r = 0; r < state.batch; ++r) {
    const double* in = below.row(r);
    double* o = out.row(r);
    for (size_t j0 = 0; j0 < nu; j0 += kBlockLanes) {
      // Each unit's sum runs k-ascending in natural unit order from +0.0,
      // with a separate multiply and add: the sequence of a full-width
      // product over the layer below, less the terms with a ±0 masked
      // weight, which leave such a sum unchanged. Lanes past the group's
      // end read the padding.
      double acc[kBlockLanes] = {};
      const double* w = blk.w.data() + j0;
      for (size_t k = 0; k < nk; ++k) {
        const double a = in[blk.rows[k]];
        const double* wk = w + k * stride;
        for (size_t j = 0; j < kBlockLanes; ++j) acc[j] += a * wk[j];
      }
      const size_t lanes = std::min(kBlockLanes, nu - j0);
      for (size_t j = 0; j < lanes; ++j) {
        const uint32_t u = blk.units[j0 + j];
        // relu(pre + bias) (+ skip), as the kernels' bias_relu_skip.
        const double v = std::max(0.0, acc[j] + bias[u]);
        o[u] = skip ? v + in[u] : v;
      }
    }
  }
}

const Matrix& MadeModel::CondProbs(const SamplerState& state,
                                   size_t col) const {
  SAM_CHECK(sampler_synced_);
  static obs::Counter* calls =
      obs::MetricsRegistry::Global().GetCounter("sam.made.cond_probs");
  static obs::Counter* rows =
      obs::MetricsRegistry::Global().GetCounter("sam.made.forward_rows");
  calls->Add(1);
  rows->Add(state.batch);
  SAM_CHECK_LT(col, schema_->num_columns());
  const size_t batch = state.batch;
  const kernels::KernelTable& kr = kernels::Active();
  // The hidden units of the degrees not computed yet, up to `col`, bottom
  // up: a degree-c unit reads the units below of degree <= c only.
  for (size_t c = state.computed + 1; c <= col; ++c) {
    for (size_t l = 0; l < sampler_blocks_.size(); ++l) {
      ComputeBlock(state, l, sampler_blocks_[l][c]);
    }
  }
  state.computed = std::max(state.computed, col);
  const ModelColumn& mc = schema_->columns()[col];
  const size_t off = mc.offset;
  const size_t d = mc.domain_size;
  // Direct logits of this column: the masked direct weights of every
  // observed unit, summed from +0.0 in observation order — the order (and so
  // the bits) of a full-width accumulator fed by each Observe. Masked weights
  // are ±0.0, which leave such a sum unchanged, but are added all the same
  // so non-finite weights propagate as before.
  Matrix& direct = state.direct;
  direct.Reshape(batch, d);
  const double* w = cached_w_direct_.data() + off;
  const size_t stride = cached_w_direct_.cols();
  for (size_t r = 0; r < batch; ++r) {
    double* acc = direct.row(r);
    std::fill(acc, acc + d, 0.0);
    for (size_t k = 0; k < state.observed; ++k) {
      const double* wu = w + state.units[k * batch + r] * stride;
      for (size_t j = 0; j < d; ++j) acc[j] += wu[j];
    }
  }
  Matrix& logits = state.probs;
  logits.Reshape(batch, d);
  // Fused output slice: logits = h * W_out[:, off:off+d] + b_out[off:off+d]
  // + direct, over the last layer at full width. Its units of degree > col
  // are +0 (not computed yet) against ±0 masked weights. W_out is indexed
  // at its full row stride; the kernel reads only the d-wide slice of each
  // row.
  const Matrix& h = state.hidden.back();
  kr.output_slice(h.data(), batch, h.cols(), cached_w_out_.data() + off,
                  cached_w_out_.cols(), b_out_.value().data() + off,
                  direct.data(), d, logits.data(), d);
  // Row softmax through the kernel layer (shared FastExp keeps the two
  // backends bit-identical; libm's std::exp makes no such promise).
  kr.softmax_rows(logits.data(), batch, d);
  return logits;
}

void MadeModel::Observe(SamplerState* state, size_t col,
                        std::span<const int32_t> codes) const {
  SAM_CHECK(sampler_synced_);
  SAM_CHECK_EQ(codes.size(), state->batch);
  const ModelColumn& mc = schema_->columns()[col];
  const size_t h1 = options_.hidden_sizes[0];
  for (size_t r = 0; r < state->batch; ++r) {
    const int32_t code = codes[r];
    SAM_CHECK(code >= 0 && static_cast<size_t>(code) < mc.domain_size)
        << "bad code " << code << " for column " << mc.name;
    const size_t unit = mc.offset + static_cast<size_t>(code);
    kernels::Active().vec_add(state->pre1.row(r), cached_w_in_.row(unit), h1);
    state->units.push_back(static_cast<uint32_t>(unit));
  }
  state->observed++;
  // Every unit of degree > col reads this column: out of an in-order sweep
  // (a CondProbs past `col` came first), recompute them on the next call.
  if (state->computed > col) {
    const std::vector<size_t>& deg = hidden_degrees_.back();
    for (size_t r = 0; r < state->batch; ++r) {
      double* h = state->hidden.back().row(r);
      for (size_t u = 0; u < deg.size(); ++u) {
        if (deg[u] > col) h[u] = 0.0;
      }
    }
    state->computed = col;
  }
}

namespace {
// Artifact tag + payload version of the model weight file. Version 2 is the
// checksummed artifact-container format; version 1 was a raw stream with no
// length or integrity metadata.
constexpr char kModelArtifactKind[] = "MADEMODL";
constexpr uint32_t kModelArtifactVersion = 2;
}

Status MadeModel::Save(const std::string& path) const {
  ArtifactWriter w(kModelArtifactKind, kModelArtifactVersion);
  const auto ps = params();
  w.PutU64(ps.size());
  for (const auto& p : ps) w.PutMatrix(p.value());
  // Atomic temp+fsync+rename commit: a crash mid-save leaves any previous
  // model file untouched, and the CRC makes later corruption detectable.
  return w.Commit(path);
}

Status MadeModel::Load(const std::string& path) {
  SAM_ASSIGN_OR_RETURN(ArtifactReader r,
                       ArtifactReader::Open(path, kModelArtifactKind));
  if (r.version() != kModelArtifactVersion) {
    return Status::InvalidArgument("model file '" + path +
                                   "' has unsupported version " +
                                   std::to_string(r.version()));
  }
  SAM_ASSIGN_OR_RETURN(const uint64_t count, r.GetU64());
  auto ps = params();
  if (count != ps.size()) {
    return Status::InvalidArgument("model file parameter count mismatch");
  }
  // Stage every tensor before touching the model, so a shape mismatch (or a
  // truncated payload the bounds-checked reader rejects) leaves the current
  // parameters fully intact instead of partially overwritten.
  std::vector<Matrix> staged;
  staged.reserve(ps.size());
  for (auto& p : ps) {
    SAM_ASSIGN_OR_RETURN(Matrix m, r.GetMatrix());
    if (m.rows() != p.value().rows() || m.cols() != p.value().cols()) {
      return Status::InvalidArgument("model file shape mismatch");
    }
    staged.push_back(std::move(m));
  }
  SAM_RETURN_NOT_OK(r.ExpectEnd());
  for (size_t i = 0; i < ps.size(); ++i) {
    ps[i].mutable_value() = std::move(staged[i]);
  }
  sampler_synced_ = false;
  return Status::OK();
}

}  // namespace sam
