// Scalar vs AVX2 kernel parity. The dispatch layer promises the two backends
// are bit-identical (kernels.h), which is what keeps FOJ sampling and
// training reproducible across machines; these tests check that promise
// bit-for-bit, including the awkward inputs (lane remainders, zero rows with
// NaN/Inf behind them, NaN and denormal activations).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "datasets/datasets.h"
#include "engine/bitmap.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "sam/sam_model.h"
#include "workload/generator.h"

namespace sam {
namespace {

using kernels::Backend;
using kernels::Table;

// Restores the process-wide backend on scope exit so parity tests cannot
// leak a forced backend into later tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::ActiveBackend()) {}
  ~BackendGuard() { kernels::SetBackend(saved_); }

 private:
  Backend saved_;
};

std::vector<double> RandomVec(Rng* rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-2.0, 2.0);
  return v;
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;  // memcmp must not see an empty vector's null data.
  // memcmp, not ==: NaNs must match bit patterns too.
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << " is not bit-identical";
}

// Shapes with deliberate lane remainders (not multiples of 4/8/16/64), plus
// the DPS training shapes: census-like (batch 128, hidden 48, a 2- and a
// 9-wide column slice, 260 input units) and imdb-like (batch 256, fanout
// domain 25, 269 input units).
struct Shape {
  size_t m, k, n;
};
const Shape kShapes[] = {{1, 1, 1},     {3, 5, 7},     {17, 33, 5},
                         {4, 240, 16},  {2, 241, 19},  {13, 250, 37},
                         {8, 64, 129},  {128, 48, 260}, {128, 2, 260},
                         {128, 9, 260}, {256, 25, 269}};

TEST(KernelParityTest, MatmulBitIdentical) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(1);
  for (const Shape& s : kShapes) {
    const auto a = RandomVec(&rng, s.m * s.k);
    const auto b = RandomVec(&rng, s.k * s.n);
    std::vector<double> cs(s.m * s.n), cv(s.m * s.n);
    Table(Backend::kScalar)
        .matmul(a.data(), s.m, s.k, s.k, b.data(), s.n, cs.data());
    Table(Backend::kAvx2)
        .matmul(a.data(), s.m, s.k, s.k, b.data(), s.n, cv.data());
    ExpectBitIdentical(cs, cv, "matmul");
  }
}

TEST(KernelParityTest, MatmulTaBitIdentical) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(2);
  for (const Shape& s : kShapes) {
    const auto a = RandomVec(&rng, s.k * s.m);  // A: k x m, C = A^T B: m x n.
    const auto b = RandomVec(&rng, s.k * s.n);
    std::vector<double> cs(s.m * s.n), cv(s.m * s.n);
    Table(Backend::kScalar)
        .matmul_ta(a.data(), s.k, s.m, s.m, b.data(), s.n, cs.data());
    Table(Backend::kAvx2)
        .matmul_ta(a.data(), s.k, s.m, s.m, b.data(), s.n, cv.data());
    ExpectBitIdentical(cs, cv, "matmul_ta");
  }
}

TEST(KernelParityTest, MatmulTbBitIdentical) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(3);
  for (const Shape& s : kShapes) {
    const auto a = RandomVec(&rng, s.m * s.k);
    const auto b = RandomVec(&rng, s.n * s.k);  // B: n x k, C = A B^T: m x n.
    std::vector<double> cs(s.m * s.n), cv(s.m * s.n);
    Table(Backend::kScalar)
        .matmul_tb(a.data(), s.m, s.k, b.data(), s.n, cs.data());
    Table(Backend::kAvx2).matmul_tb(a.data(), s.m, s.k, b.data(), s.n, cv.data());
    ExpectBitIdentical(cs, cv, "matmul_tb");
  }
}

TEST(KernelParityTest, StridedMatmulsReadTheColumnPrefixInPlace) {
  // A is a column prefix [0, live) of a wider matrix, read at the wide row
  // stride (the DPS tape's progressive buffers). Each backend must give the
  // bits of the same product on a contiguous copy of the prefix, and the
  // backends must agree with each other. Entries past the prefix are NaN, so
  // reading one would show.
  std::vector<Backend> backends = {Backend::kScalar};
  if (kernels::Avx2Available()) backends.push_back(Backend::kAvx2);
  Rng rng(12);
  for (const Shape& s : kShapes) {
    const size_t width = s.k + 7;
    for (size_t live : {size_t{0}, size_t{1}, s.k / 2, s.k}) {
      std::vector<double> wide(s.m * width,
                               std::numeric_limits<double>::quiet_NaN());
      std::vector<double> prefix(s.m * live);
      for (size_t r = 0; r < s.m; ++r) {
        for (size_t c = 0; c < live; ++c) {
          // One-hot-like sparsity, so the zero-skip is exercised too.
          const double v = (r + c) % 3 == 0 ? 0.0 : rng.Uniform(-2.0, 2.0);
          wide[r * width + c] = v;
          prefix[r * live + c] = v;
        }
      }
      const auto b = RandomVec(&rng, live * s.n);  // C = A B: m x n.
      const auto g = RandomVec(&rng, s.m * s.n);   // C = A^T G: live x n.
      std::vector<std::vector<double>> products;
      for (Backend backend : backends) {
        const auto& table = Table(backend);
        std::vector<double> strided(s.m * s.n), dense(s.m * s.n);
        table.matmul(wide.data(), s.m, live, width, b.data(), s.n,
                     strided.data());
        table.matmul(prefix.data(), s.m, live, live, b.data(), s.n,
                     dense.data());
        ExpectBitIdentical(strided, dense, "strided matmul vs copied prefix");
        std::vector<double> strided_ta(live * s.n), dense_ta(live * s.n);
        table.matmul_ta(wide.data(), s.m, live, width, g.data(), s.n,
                        strided_ta.data());
        table.matmul_ta(prefix.data(), s.m, live, live, g.data(), s.n,
                        dense_ta.data());
        ExpectBitIdentical(strided_ta, dense_ta,
                           "strided matmul_ta vs copied prefix");
        for (double v : strided) EXPECT_FALSE(std::isnan(v));
        for (double v : strided_ta) EXPECT_FALSE(std::isnan(v));
        strided.insert(strided.end(), strided_ta.begin(), strided_ta.end());
        products.push_back(std::move(strided));
      }
      if (products.size() == 2) {
        ExpectBitIdentical(products[0], products[1], "strided matmul(_ta)");
      }
    }
  }
}

TEST(KernelParityTest, ZeroARowsSkipNaNInfInB) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  // Both backends skip aik == 0.0, so NaN/Inf rows of B behind a zero weight
  // must never leak into C — and the skip must agree between paths.
  const size_t m = 3, k = 5, n = 9;
  Rng rng(4);
  auto a = RandomVec(&rng, m * k);
  auto b = RandomVec(&rng, k * n);
  for (size_t i = 0; i < m; ++i) a[i * k + 2] = 0.0;  // Column 2 of A zeroed.
  for (size_t j = 0; j < n; ++j) {
    b[2 * n + j] = (j % 2 != 0) ? std::numeric_limits<double>::quiet_NaN()
                                : std::numeric_limits<double>::infinity();
  }
  std::vector<double> cs(m * n), cv(m * n);
  Table(Backend::kScalar).matmul(a.data(), m, k, k, b.data(), n, cs.data());
  Table(Backend::kAvx2).matmul(a.data(), m, k, k, b.data(), n, cv.data());
  ExpectBitIdentical(cs, cv, "matmul with poisoned skipped row");
  for (double v : cs) EXPECT_TRUE(std::isfinite(v));
}

TEST(KernelParityTest, BiasReluSkipBitIdenticalOnAwkwardValues) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  const size_t rows = 5, cols = 23;  // 23: remainder lanes.
  Rng rng(5);
  auto base = RandomVec(&rng, rows * cols);
  auto bias = RandomVec(&rng, cols);
  const auto skip = RandomVec(&rng, rows * cols);
  // Poison with NaN, denormals, and exact negations (relu boundary).
  base[0] = std::numeric_limits<double>::quiet_NaN();
  base[1] = 1e-310;
  base[2] = -bias[2];
  base[cols + 3] = -0.0;
  for (const double* sk : {skip.data(), static_cast<const double*>(nullptr)}) {
    auto xs = base, xv = base;
    Table(Backend::kScalar).bias_relu_skip(xs.data(), bias.data(), sk, rows, cols);
    Table(Backend::kAvx2).bias_relu_skip(xv.data(), bias.data(), sk, rows, cols);
    ExpectBitIdentical(xs, xv, "bias_relu_skip");
    // relu semantics follow std::max(0.0, v): NaN -> 0.
    if (sk == nullptr) {
      EXPECT_EQ(xs[0], 0.0);
    }
  }
}

TEST(KernelParityTest, VecAddBitIdentical) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(6);
  for (size_t n : {1u, 4u, 17u, 63u, 130u}) {
    auto in = RandomVec(&rng, n);
    in[0] = std::numeric_limits<double>::quiet_NaN();
    if (n > 2) in[2] = -1e-310;
    auto ds = RandomVec(&rng, n);
    auto dv = ds;
    Table(Backend::kScalar).vec_add(ds.data(), in.data(), n);
    Table(Backend::kAvx2).vec_add(dv.data(), in.data(), n);
    ExpectBitIdentical(ds, dv, "vec_add");
  }
}

TEST(KernelParityTest, OutputSliceBitIdentical) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  const size_t rows = 7, hc = 33, d = 13, w_stride = 29, direct_stride = 21;
  Rng rng(7);
  auto h = RandomVec(&rng, rows * hc);
  // ReLU-like sparsity: zero some activations (exercises the skip).
  for (size_t i = 0; i < h.size(); i += 3) h[i] = 0.0;
  const auto w = RandomVec(&rng, hc * w_stride);
  const auto bias = RandomVec(&rng, d);
  const auto direct = RandomVec(&rng, rows * direct_stride);
  std::vector<double> os(rows * d), ov(rows * d);
  Table(Backend::kScalar)
      .output_slice(h.data(), rows, hc, w.data(), w_stride, bias.data(),
                    direct.data(), direct_stride, os.data(), d);
  Table(Backend::kAvx2)
      .output_slice(h.data(), rows, hc, w.data(), w_stride, bias.data(),
                    direct.data(), direct_stride, ov.data(), d);
  ExpectBitIdentical(os, ov, "output_slice");
}

TEST(KernelParityTest, OutputSliceSmallDomainsBitIdenticalAndCorrect) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  // d <= 4 takes the shared register-accumulating specialisation; check it
  // against both backends and a naive reference.
  const size_t rows = 9, hc = 65, w_stride = 11, direct_stride = 7;
  Rng rng(12);
  auto h = RandomVec(&rng, rows * hc);
  for (size_t i = 0; i < h.size(); i += 2) h[i] = 0.0;
  const auto w = RandomVec(&rng, hc * w_stride);
  const auto bias = RandomVec(&rng, 4);
  const auto direct = RandomVec(&rng, rows * direct_stride);
  for (size_t d : {1u, 2u, 3u, 4u}) {
    std::vector<double> os(rows * d), ov(rows * d);
    Table(Backend::kScalar)
        .output_slice(h.data(), rows, hc, w.data(), w_stride, bias.data(),
                      direct.data(), direct_stride, os.data(), d);
    Table(Backend::kAvx2)
        .output_slice(h.data(), rows, hc, w.data(), w_stride, bias.data(),
                      direct.data(), direct_stride, ov.data(), d);
    ExpectBitIdentical(os, ov, "output_slice small d");
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < d; ++j) {
        // The small-d path has no zero-skip (see kernels_smalld.h).
        double ref = bias[j];
        for (size_t k = 0; k < hc; ++k) {
          ref += h[r * hc + k] * w[k * w_stride + j];
        }
        ref += direct[r * direct_stride + j];
        EXPECT_NEAR(os[r * d + j], ref, 1e-12) << "r=" << r << " j=" << j;
      }
    }
  }
}

TEST(KernelParityTest, SoftmaxRowsBitIdentical) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(10);
  for (size_t d : {1u, 2u, 5u, 64u, 99u, 257u}) {
    const size_t rows = 9;
    auto base = RandomVec(&rng, rows * d);
    for (double& v : base) v *= 10.0;  // Wider logit spread.
    base[0] = -800.0;  // Exercises the exp underflow clamp.
    auto xs = base, xv = base;
    Table(Backend::kScalar).softmax_rows(xs.data(), rows, d);
    Table(Backend::kAvx2).softmax_rows(xv.data(), rows, d);
    ExpectBitIdentical(xs, xv, "softmax_rows");
    // Each row must be a probability distribution close to std::exp's.
    for (size_t r = 0; r < rows; ++r) {
      double sum = 0.0, ref_mx = base[r * d];
      for (size_t j = 0; j < d; ++j) ref_mx = std::max(ref_mx, base[r * d + j]);
      double ref_sum = 0.0;
      std::vector<double> ref(d);
      for (size_t j = 0; j < d; ++j) {
        ref[j] = std::exp(base[r * d + j] - ref_mx);
        ref_sum += ref[j];
      }
      for (size_t j = 0; j < d; ++j) {
        sum += xs[r * d + j];
        EXPECT_NEAR(xs[r * d + j], ref[j] / ref_sum, 1e-12) << "row " << r;
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

TEST(KernelParityTest, RangeMaskAndMatchesScalarIncludingNulls) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(8);
  for (size_t n : {1u, 64u, 65u, 200u, 1000u}) {
    std::vector<int32_t> codes(n);
    for (auto& c : codes) {
      // ~1/8 NULLs; the rest spread over a small domain so ranges bite.
      c = rng.Uniform() < 0.125 ? kNullCode
                                : static_cast<int32_t>(rng.UniformInt(0, 40));
    }
    for (auto [lo, hi] : {std::pair<int32_t, int32_t>{0, 40},
                          {10, 20},
                          {1, 0},    // Canonical empty range.
                          {40, 40},
                          {0, 0}}) {
      engine::Bitmap bs, bv;
      bs.ResetAllSet(n);
      bv.ResetAllSet(n);
      Table(Backend::kScalar).range_mask_and(bs.words(), codes.data(), n, lo, hi);
      Table(Backend::kAvx2).range_mask_and(bv.words(), codes.data(), n, lo, hi);
      ASSERT_EQ(bs.num_words(), bv.num_words());
      EXPECT_EQ(std::memcmp(bs.words(), bv.words(),
                            bs.num_words() * sizeof(uint64_t)),
                0)
          << "range_mask_and n=" << n << " lo=" << lo << " hi=" << hi;
      EXPECT_EQ(Table(Backend::kScalar).bitmap_popcount(bs.words(), bs.num_words()),
                Table(Backend::kAvx2).bitmap_popcount(bv.words(), bv.num_words()));
      // Cross-check against the definition, bit by bit.
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bs.Test(i), codes[i] >= lo && codes[i] <= hi) << "row " << i;
      }
    }
  }
}

TEST(KernelsTest, MatrixMultiplyMatchesNaiveReference) {
  // Independent of backend: the dispatched matmul must agree with a plain
  // ijk triple loop to rounding error.
  Rng rng(9);
  const size_t m = 11, k = 250, n = 17;
  Matrix a(m, k), b(k, n);
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Uniform(-1.0, 1.0);
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Uniform(-1.0, 1.0);
  const Matrix c = Matrix::Multiply(a, b);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double ref = 0.0;
      for (size_t kk = 0; kk < k; ++kk) ref += a(i, kk) * b(kk, j);
      EXPECT_NEAR(c(i, j), ref, 1e-9) << "(" << i << "," << j << ")";
    }
  }
}

TEST(KernelParityTest, SampleFojBitIdenticalAcrossBackends) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  // End-to-end determinism: the generated FOJ codes must not depend on which
  // backend the process picked (the acceptance bar for shipping SIMD at all).
  Database db = MakeImdbLike(200, 3);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 50;
  auto train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  SamOptions options;
  options.generation_batch = 128;
  auto sam = SamModel::Create(db, train, SchemaHints{},
                              exec->FullOuterJoinSize(), options)
                 .MoveValue();
  sam->model()->SyncSamplerWeights();

  BackendGuard guard;
  ASSERT_TRUE(kernels::SetBackend(Backend::kScalar));
  const auto scalar_out = sam->SampleFoj(1000, 42);
  ASSERT_TRUE(kernels::SetBackend(Backend::kAvx2));
  const auto simd_out = sam->SampleFoj(1000, 42);

  ASSERT_EQ(scalar_out.count, simd_out.count);
  ASSERT_EQ(scalar_out.codes.size(), simd_out.codes.size());
  for (size_t c = 0; c < scalar_out.codes.size(); ++c) {
    EXPECT_EQ(scalar_out.codes[c], simd_out.codes[c]) << "column " << c;
  }
}

}  // namespace
}  // namespace sam
