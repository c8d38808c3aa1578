#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "autodiff/adam.h"
#include "autodiff/ops.h"
#include "autodiff/tensor.h"

namespace sam::ad {
namespace {

Matrix Make(size_t r, size_t c, std::initializer_list<double> vals) {
  Matrix m(r, c);
  size_t i = 0;
  for (double v : vals) m.data()[i++] = v;
  return m;
}

/// Central-difference gradient check for a scalar function of one parameter.
void CheckGradients(Tensor param,
                    const std::function<Tensor(const Tensor&)>& fn,
                    double tol = 1e-5) {
  Tensor loss = fn(param);
  param.ZeroGrad();
  loss.Backward();
  const Matrix analytic = param.grad();
  const double eps = 1e-6;
  for (size_t i = 0; i < param.value().size(); ++i) {
    const double orig = param.value().data()[i];
    param.mutable_value().data()[i] = orig + eps;
    const double up = fn(param).value()(0, 0);
    param.mutable_value().data()[i] = orig - eps;
    const double down = fn(param).value()(0, 0);
    param.mutable_value().data()[i] = orig;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "gradient mismatch at flat index " << i;
  }
}

TEST(TensorTest, ConstantHasNoGrad) {
  Tensor t = Tensor::Constant(Make(1, 2, {1, 2}));
  EXPECT_FALSE(t.requires_grad());
}

TEST(TensorTest, BackwardThroughAddAndSum) {
  Tensor a = Tensor::Param(Make(2, 2, {1, 2, 3, 4}));
  Tensor b = Tensor::Constant(Make(2, 2, {10, 20, 30, 40}));
  Tensor loss = SumAll(Add(a, b));
  loss.Backward();
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(a.grad().data()[i], 1.0);
}

TEST(TensorTest, GradAccumulatesWhenReused) {
  Tensor a = Tensor::Param(Make(1, 1, {3}));
  // loss = a*a => dloss/da = 2a = 6.
  Tensor loss = SumAll(Mul(a, a));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad()(0, 0), 6.0);
}

TEST(OpsGradTest, Matmul) {
  Tensor w = Tensor::Param(Make(3, 2, {0.1, -0.2, 0.3, 0.4, -0.5, 0.6}));
  Tensor x = Tensor::Constant(Make(2, 3, {1, 2, 3, -1, 0, 2}));
  CheckGradients(w, [&](const Tensor& p) { return SumAll(Mul(Matmul(x, p), Matmul(x, p))); });
}

TEST(OpsGradTest, MatmulPrefix) {
  // dB, with the input zero past the live prefix (columns [2, 3)).
  Tensor w = Tensor::Param(Make(3, 2, {0.1, -0.2, 0.3, 0.4, -0.5, 0.6}));
  Tensor x = Tensor::Constant(Make(2, 3, {1, 2, 0, -1, 0.5, 0}));
  CheckGradients(w, [&](const Tensor& p) {
    Tensor y = MatmulPrefix(x, p, 2);
    return SumAll(Mul(y, y));
  });
  // dA, read through the prefix only, as a DPS column pass reads it: the
  // live columns are padded out to the full input width.
  Tensor a = Tensor::Param(Make(2, 2, {0.7, -1.2, 0.4, 2.0}));
  Tensor w2 = Tensor::Constant(Make(3, 2, {0.1, -0.2, 0.3, 0.4, -0.5, 0.6}));
  CheckGradients(a, [&](const Tensor& p) {
    Tensor y = MatmulPrefix(PadColumns(p, 0, 3), w2, 2);
    return SumAll(Mul(y, y));
  });
}

TEST(OpsTest, MatmulPrefixGradientsBitIdenticalToMatmul) {
  // On the live prefix, MatmulPrefix's dA and its whole dB must be the very
  // bits ad::Matmul produces, for every live width; dA past the prefix is
  // never accumulated and stays +0.0.
  const size_t rows = 7, k = 13, d = 6;
  Rng rng(5);
  for (size_t live : {size_t{0}, size_t{1}, size_t{6}, k}) {
    Matrix a(rows, k), w(k, d), g(rows, d);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < live; ++c) a(r, c) = rng.Uniform(-2.0, 2.0);
    }
    for (size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.Uniform(-2.0, 2.0);
    for (size_t i = 0; i < g.size(); ++i) g.data()[i] = rng.Uniform(-2.0, 2.0);
    auto grads = [&](bool prefix) {
      Tensor ta = Tensor::Param(a);
      Tensor tw = Tensor::Param(w);
      Tensor y = prefix ? MatmulPrefix(ta, tw, live) : Matmul(ta, tw);
      SumAll(Mul(y, Tensor::Constant(g))).Backward();
      return std::make_pair(ta.grad(), tw.grad());
    };
    const auto [da_ref, dw_ref] = grads(false);
    const auto [da, dw] = grads(true);
    ASSERT_EQ(dw.size(), dw_ref.size());
    EXPECT_EQ(std::memcmp(dw.data(), dw_ref.data(), dw.size() * sizeof(double)),
              0)
        << "dB, live=" << live;
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(std::memcmp(da.row(r), da_ref.row(r), live * sizeof(double)),
                0)
          << "dA row " << r << ", live=" << live;
      for (size_t c = live; c < k; ++c) {
        EXPECT_FALSE(std::signbit(da(r, c)));
        EXPECT_EQ(da(r, c), 0.0);
      }
    }
  }
}

/// Values and gradients of a small progressive tape, bit for bit: the
/// blocks' gradients, every reader's value and the readers' weight
/// gradients, in tape order.
struct TapeBits {
  std::vector<Matrix> values;
  std::vector<Matrix> grads;
};

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A DPS-shaped tape over a rows x 13 progressive matrix: blocks of widths
/// 1, 5 and 7 are written at offsets 0, 1 and 6, and before each write (and
/// after the last) two readers multiply the filled prefix, live = 0, 1, 6
/// (mid) and 13 (full). Each block also feeds the loss directly, as a
/// sampled fanout does. `mode` 0 runs the progressive buffer; 1 and 2 run
/// the Add(PadColumns) chain it replaced, read by `MatmulPrefix` (1) or by
/// the full-width `Matmul` (2).
TapeBits RunProgressiveTape(int mode) {
  constexpr size_t kRows = 5, kWidth = 13, kOut = 3;
  const size_t offsets[] = {0, 1, 6, kWidth};
  Rng rng(17);
  auto random = [&](size_t r, size_t c) {
    Matrix m(r, c);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform(-2.0, 2.0);
    return m;
  };
  std::vector<Tensor> blocks, weights;
  for (size_t k = 0; k < 3; ++k) {
    Matrix b = random(kRows, offsets[k + 1] - offsets[k]);
    // One-hot-like zeros, so the kernels' zero-skip takes part.
    for (size_t i = 0; i < b.size(); i += 3) b.data()[i] = 0.0;
    blocks.push_back(Tensor::Param(std::move(b)));
  }
  for (size_t k = 0; k < 8; ++k) {
    weights.push_back(Tensor::Param(random(kWidth, kOut)));
  }
  ProgressiveBuffer buffer(kRows, kWidth);
  Tensor chain = Tensor::Zeros(kRows, kWidth);
  Tensor loss = Tensor::Constant(Matrix(1, 1));
  TapeBits bits;
  for (size_t stage = 0; stage < 4; ++stage) {
    const size_t live = offsets[stage];
    for (size_t j = 0; j < 2; ++j) {
      const Tensor& w = weights[2 * stage + j];
      const Tensor y = mode == 0   ? MatmulPrefix(buffer, w, live)
                       : mode == 1 ? MatmulPrefix(chain, w, live)
                                   : Matmul(chain, w);
      bits.values.push_back(y.value());
      loss = Add(loss, SumAll(Mul(y, Tensor::Constant(random(kRows, kOut)))));
    }
    if (stage == 3) break;
    const Tensor& block = blocks[stage];
    loss = Add(loss, SumAll(Mul(block, block)));
    if (mode == 0) {
      buffer.Write(block, live);
    } else {
      chain = Add(chain, PadColumns(block, live, kWidth));
    }
  }
  bits.values.push_back(mode == 0 ? buffer.value() : chain.value());
  loss.Backward();
  for (const Tensor& b : blocks) bits.grads.push_back(b.grad());
  for (const Tensor& w : weights) bits.grads.push_back(w.grad());
  return bits;
}

TEST(OpsTest, ProgressiveBufferBitIdenticalToPadAddChain) {
  const TapeBits buffer = RunProgressiveTape(0);
  for (int mode : {1, 2}) {
    const TapeBits chain = RunProgressiveTape(mode);
    ASSERT_EQ(buffer.values.size(), chain.values.size());
    for (size_t i = 0; i < buffer.values.size(); ++i) {
      EXPECT_TRUE(SameBits(buffer.values[i], chain.values[i]))
          << "value " << i << ", mode " << mode;
    }
    ASSERT_EQ(buffer.grads.size(), chain.grads.size());
    // Three block gradients (dA), then eight weight gradients (dB).
    for (size_t i = 0; i < buffer.grads.size(); ++i) {
      EXPECT_TRUE(SameBits(buffer.grads[i], chain.grads[i]))
          << (i < 3 ? "dA of block " : "dB of weight ") << (i < 3 ? i : i - 3)
          << ", mode " << mode;
    }
  }
}

TEST(OpsTest, ProgressiveBufferRefusesUnwrittenAndRewrittenSlots) {
  ProgressiveBuffer buffer(2, 6);
  const Tensor w = Tensor::Constant(Matrix(6, 1));
  buffer.Write(Tensor::Constant(Matrix(2, 2, 1.0)), 1);
  EXPECT_EQ(buffer.filled(), 3u);
  EXPECT_EQ(buffer.value()(1, 0), 0.0);
  EXPECT_EQ(buffer.value()(1, 2), 1.0);
  EXPECT_DEATH(MatmulPrefix(buffer, w, 4), "unwritten slot");
  EXPECT_DEATH(buffer.Write(Tensor::Constant(Matrix(2, 1)), 2), "final");
}

TEST(OpsGradTest, BiasRelu) {
  // Entries of a + bias sit well away from the relu kink at 0.
  const Matrix a = Make(2, 3, {0.7, -1.1, 0.4, -0.6, 1.3, -0.9});
  const Matrix bias = Make(1, 3, {0.2, 0.5, -0.8});
  const Tensor weights = Tensor::Constant(Make(2, 3, {1, -2, 3, 0.5, 2, -1}));
  auto loss = [&](const Tensor& x, const Tensor& b) {
    const Tensor y = BiasRelu(x, b);
    return SumAll(Mul(Mul(y, y), weights));
  };
  CheckGradients(Tensor::Param(a), [&](const Tensor& p) {
    return loss(p, Tensor::Constant(bias));
  });
  CheckGradients(Tensor::Param(bias), [&](const Tensor& p) {
    return loss(Tensor::Constant(a), p);
  });
}

TEST(OpsGradTest, BiasReluSkip) {
  const Matrix a = Make(2, 3, {0.7, -1.1, 0.4, -0.6, 1.3, -0.9});
  const Matrix bias = Make(1, 3, {0.2, 0.5, -0.8});
  const Matrix skip = Make(2, 3, {0.3, -0.4, 1.2, -1.5, 0.8, 0.1});
  const Tensor weights = Tensor::Constant(Make(2, 3, {1, -2, 3, 0.5, 2, -1}));
  auto loss = [&](const Tensor& x, const Tensor& b, const Tensor& s) {
    const Tensor y = BiasReluSkip(x, b, s);
    return SumAll(Mul(Mul(y, y), weights));
  };
  CheckGradients(Tensor::Param(a), [&](const Tensor& p) {
    return loss(p, Tensor::Constant(bias), Tensor::Constant(skip));
  });
  CheckGradients(Tensor::Param(bias), [&](const Tensor& p) {
    return loss(Tensor::Constant(a), p, Tensor::Constant(skip));
  });
  CheckGradients(Tensor::Param(skip), [&](const Tensor& p) {
    return loss(Tensor::Constant(a), Tensor::Constant(bias), p);
  });
}

TEST(OpsGradTest, Relu) {
  Tensor a = Tensor::Param(Make(1, 4, {-1.0, 0.5, 2.0, -0.3}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(Mul(Relu(p), Relu(p))); });
}

TEST(OpsGradTest, Softmax) {
  Tensor a = Tensor::Param(Make(2, 3, {0.5, -1.0, 2.0, 0.0, 0.1, -0.2}));
  Tensor weights = Tensor::Constant(Make(2, 3, {1, 2, 3, -1, 0, 1}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(Mul(Softmax(p), weights)); });
}

TEST(OpsGradTest, LogEps) {
  Tensor a = Tensor::Param(Make(1, 3, {0.5, 1.5, 3.0}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(LogEps(p)); });
}

TEST(OpsGradTest, RowSumAndScale) {
  Tensor a = Tensor::Param(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  CheckGradients(a, [&](const Tensor& p) {
    return SumAll(Mul(Scale(RowSum(p), 0.5), Scale(RowSum(p), 0.5)));
  });
}

TEST(OpsGradTest, SliceAndPad) {
  Tensor a = Tensor::Param(Make(2, 4, {1, 2, 3, 4, 5, 6, 7, 8}));
  CheckGradients(a, [&](const Tensor& p) {
    Tensor s = SliceColumns(p, 1, 3);
    Tensor padded = PadColumns(s, 2, 6);
    return SumAll(Mul(padded, padded));
  });
}

TEST(OpsGradTest, SliceRows) {
  Tensor a = Tensor::Param(Make(3, 2, {1, 2, 3, 4, 5, 6}));
  CheckGradients(a, [&](const Tensor& p) {
    Tensor s = SliceRows(p, 1, 3);
    return SumAll(Mul(s, s));
  });
}

TEST(OpsGradTest, AddRowBroadcast) {
  Tensor bias = Tensor::Param(Make(1, 3, {0.1, -0.2, 0.3}));
  Tensor x = Tensor::Constant(Make(2, 3, {1, 2, 3, 4, 5, 6}));
  CheckGradients(bias, [&](const Tensor& p) {
    Tensor y = AddRowBroadcast(x, p);
    return SumAll(Mul(y, y));
  });
}

TEST(OpsGradTest, Sub) {
  Tensor a = Tensor::Param(Make(1, 3, {1, 2, 3}));
  Tensor b = Tensor::Constant(Make(1, 3, {0.5, 0.5, 0.5}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(Mul(Sub(p, b), Sub(p, b))); });
}

TEST(OpsGradTest, Reciprocal) {
  Tensor a = Tensor::Param(Make(1, 3, {1.0, 2.0, 4.0}));
  CheckGradients(a, [&](const Tensor& p) { return SumAll(Reciprocal(p)); });
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::Constant(Make(2, 4, {1, 2, 3, 4, -10, 0, 10, 20}));
  Tensor s = Softmax(a);
  for (size_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 4; ++c) sum += s.value()(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(OpsTest, GumbelSoftmaxForwardIsOneHotWithinMask) {
  // Mask out column 0 with a large negative logit.
  Matrix logits(8, 3);
  for (size_t r = 0; r < 8; ++r) {
    logits(r, 0) = -1e30;
    logits(r, 1) = 0.0;
    logits(r, 2) = 1.0;
  }
  Tensor t = Tensor::Constant(std::move(logits));
  Tensor sample = GumbelSoftmaxST(t, 1.0, GumbelNoise{11, 0, 0, 0});
  for (size_t r = 0; r < 8; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(sample.value()(r, c) == 0.0 || sample.value()(r, c) == 1.0);
      sum += sample.value()(r, c);
    }
    EXPECT_DOUBLE_EQ(sum, 1.0);
    EXPECT_DOUBLE_EQ(sample.value()(r, 0), 0.0) << "masked category sampled";
  }
}

TEST(OpsTest, GumbelSoftmaxBackwardRoutesGradient) {
  Tensor logits = Tensor::Param(Make(1, 3, {0.2, 0.5, 0.1}));
  Tensor weights = Tensor::Constant(Make(1, 3, {1.0, 2.0, 3.0}));
  Tensor loss = SumAll(
      Mul(GumbelSoftmaxST(logits, 0.7, GumbelNoise{13, 0, 0, 0}), weights));
  loss.Backward();
  // Gradient must be nonzero somewhere (soft path) even though the forward
  // value is a hard one-hot.
  double norm = 0;
  for (size_t i = 0; i < 3; ++i) norm += std::fabs(logits.grad().data()[i]);
  EXPECT_GT(norm, 0.0);
}

TEST(OpsTest, GumbelSoftmaxNoiseIsAddressedByRowKey) {
  // A row's noise depends on its row key, not on the rows sharing the call:
  // rows [3, 8) sampled alone from first_row 3 match the same rows of one
  // 8-row call, in the hard sample and in the backward's soft weights.
  Matrix logits(8, 5);
  for (size_t r = 0; r < 8; ++r) {
    for (size_t c = 0; c < 5; ++c) logits(r, c) = 0.1 * static_cast<double>(c);
  }
  Matrix tail(5, 5);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) tail(r, c) = logits(r + 3, c);
  }
  Tensor full_in = Tensor::Param(logits);
  Tensor tail_in = Tensor::Param(tail);
  const GumbelNoise noise{21, 4, 0, 2};
  GumbelNoise tail_noise = noise;
  tail_noise.first_row = 3;
  Tensor full = GumbelSoftmaxST(full_in, 0.5, noise);
  Tensor part = GumbelSoftmaxST(tail_in, 0.5, tail_noise);
  SumAll(Mul(full, full)).Backward();
  SumAll(Mul(part, part)).Backward();
  bool any_row_differs = false;
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(part.value()(r, c), full.value()(r + 3, c));
      EXPECT_EQ(tail_in.grad()(r, c), full_in.grad()(r + 3, c));
      any_row_differs |= full.value()(r + 3, c) != full.value()(3, c);
    }
  }
  EXPECT_TRUE(any_row_differs) << "every row drew the same noise";
  // Another column of the same rows draws different noise.
  GumbelNoise other = noise;
  other.column = 3;
  Tensor again = GumbelSoftmaxST(Tensor::Constant(logits), 0.5, other);
  EXPECT_FALSE(again.value() == full.value());
}

TEST(NoGradTest, GuardSuppressesGraph) {
  Tensor a = Tensor::Param(Make(1, 2, {1, 2}));
  NoGradGuard guard;
  Tensor out = SumAll(Mul(a, a));
  EXPECT_FALSE(out.requires_grad());
  EXPECT_TRUE(out.node()->parents.empty());
}

TEST(AdamTest, MinimisesQuadratic) {
  // minimise (w - 3)^2 elementwise.
  Tensor w = Tensor::Param(Make(1, 2, {0.0, 10.0}));
  Tensor target = Tensor::Constant(Make(1, 2, {3.0, 3.0}));
  AdamOptimizer::Options opts;
  opts.lr = 0.1;
  AdamOptimizer adam({w}, opts);
  for (int step = 0; step < 500; ++step) {
    adam.ZeroGrad();
    Tensor diff = Sub(w, target);
    Tensor loss = SumAll(Mul(diff, diff));
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.value()(0, 0), 3.0, 1e-2);
  EXPECT_NEAR(w.value()(0, 1), 3.0, 1e-2);
}

TEST(AdamTest, ClipNormBoundsUpdates) {
  Tensor w = Tensor::Param(Make(1, 1, {0.0}));
  AdamOptimizer::Options opts;
  opts.lr = 1.0;
  opts.clip_norm = 1e-3;
  AdamOptimizer adam({w}, opts);
  adam.ZeroGrad();
  Tensor loss = SumAll(Mul(Scale(w, 1e6), Scale(w, 1e6)));
  loss.Backward();
  adam.Step();
  EXPECT_TRUE(std::isfinite(w.value()(0, 0)));
}

TEST(AdamTest, RangedUpdateIsBitIdenticalToStep) {
  // BeginStep + UpdateRange over any split of the elements, in any order,
  // is the serial Step: the clip factor is one serial sum and each element
  // updates on its own. Gradients large enough to clip.
  auto run = [](bool ranged) {
    Tensor a = Tensor::Param(Make(2, 3, {0.5, -1.0, 2.0, 0.0, 3.0, -4.0}));
    Tensor b = Tensor::Param(Make(1, 2, {1.0, -2.0}));
    AdamOptimizer::Options opts;
    opts.clip_norm = 0.5;
    AdamOptimizer adam({a, b}, opts);
    for (int step = 0; step < 3; ++step) {
      adam.ZeroGrad();
      SumAll(Add(SumAll(Mul(a, Scale(a, 7.0))), SumAll(Mul(b, b)))).Backward();
      if (!ranged) {
        adam.Step();
        continue;
      }
      adam.BeginStep();
      adam.UpdateRange(1, 1, 2);
      adam.UpdateRange(0, 4, 6);
      adam.UpdateRange(0, 0, 4);
      adam.UpdateRange(1, 0, 1);
    }
    std::vector<double> out(a.value().data(), a.value().data() + 6);
    out.push_back(b.value()(0, 0));
    out.push_back(b.value()(0, 1));
    return out;
  };
  const std::vector<double> serial = run(false);
  const std::vector<double> ranged = run(true);
  ASSERT_EQ(serial.size(), ranged.size());
  EXPECT_EQ(std::memcmp(serial.data(), ranged.data(),
                        serial.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace sam::ad
