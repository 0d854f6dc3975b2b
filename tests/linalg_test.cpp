#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"
#include "util/diag.hpp"
#include "util/rng.hpp"

namespace gana {
namespace {

TEST(Dense, MatmulSmall) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Dense, AtBMatchesExplicitTranspose) {
  Rng rng(1);
  const Matrix a = Matrix::randn(5, 3, 1.0, rng);
  const Matrix b = Matrix::randn(5, 4, 1.0, rng);
  const Matrix direct = matmul_at_b(a, b);
  const Matrix ref = matmul(transpose(a), b);
  ASSERT_EQ(direct.rows(), ref.rows());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], ref.data()[i], 1e-12);
  }
}

TEST(Dense, ABtMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = Matrix::randn(5, 3, 1.0, rng);
  const Matrix b = Matrix::randn(4, 3, 1.0, rng);
  const Matrix direct = matmul_a_bt(a, b);
  const Matrix ref = matmul(a, transpose(b));
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], ref.data()[i], 1e-12);
  }
}

TEST(Dense, ElementwiseOps) {
  Matrix a(2, 2, 1.0), b(2, 2, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 3.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  a *= 4.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(frobenius_sq(a), 64.0);
}

TEST(Dense, GlorotWithinLimit) {
  Rng rng(3);
  const Matrix w = Matrix::glorot(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  for (double x : w.data()) {
    EXPECT_LE(std::abs(x), limit);
  }
}

TEST(Dense, Hcat) {
  Matrix a(2, 2, 1.0), b(2, 3, 2.0);
  const Matrix c = hcat(a, b);
  EXPECT_EQ(c.cols(), 5u);
  EXPECT_DOUBLE_EQ(c(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 4), 2.0);
}

TEST(Sparse, FromTripletsSumsDuplicates) {
  auto m = SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.0},
                                              {1, 0, 5.0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Sparse, FromTripletsAcceptsReverseOrder) {
  const auto m = SparseMatrix::from_triplets(
      3, 4, {{2, 3, 6.0}, {2, 1, 5.0}, {1, 2, 4.0}, {0, 3, 3.0},
             {0, 2, 2.0}, {0, 0, 1.0}});
  EXPECT_EQ(m.row_ptr(), (std::vector<std::size_t>{0, 3, 4, 6}));
  EXPECT_EQ(m.col_idx(), (std::vector<std::size_t>{0, 2, 3, 2, 1, 3}));
  EXPECT_EQ(m.values(), (std::vector<double>{1, 2, 3, 4, 5, 6}));
}

TEST(Sparse, FromTripletsSumsDuplicatesInInputOrder) {
  // 2^53 + 1 rounds back to 2^53, so summed left to right the ones
  // between +2^53 and -2^53 vanish and (1, 2) is exactly 0. Any order
  // that moves a one before the first addend or past the last leaves it
  // nonzero (reversed, 3000). The duplicates are interleaved with other
  // entries, so an unstable sort would reorder them.
  constexpr double kBig = 9007199254740992.0;  // 2^53
  Rng rng(8);
  std::vector<Triplet> t;
  t.push_back({1, 2, kBig});
  for (int i = 0; i < 3000; ++i) {
    t.push_back({1, 2, 1.0});
    t.push_back({2 * rng.index(2), rng.index(3), 1.0});  // rows 0 and 2
  }
  t.push_back({1, 2, -kBig});
  EXPECT_EQ(SparseMatrix::from_triplets(3, 3, t).at(1, 2), 0.0);
  std::reverse(t.begin(), t.end());
  EXPECT_EQ(SparseMatrix::from_triplets(3, 3, t).at(1, 2), 3000.0);
}

TEST(Sparse, FromTripletsKeepsEmptyRows) {
  const auto m = SparseMatrix::from_triplets(
      6, 3, {{4, 1, 2.0}, {1, 0, 1.0}, {4, 1, 3.0}});
  EXPECT_EQ(m.row_ptr(), (std::vector<std::size_t>{0, 0, 1, 1, 1, 2, 2}));
  EXPECT_EQ(m.col_idx(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(m.values(), (std::vector<double>{1.0, 5.0}));
  const auto empty = SparseMatrix::from_triplets(3, 2, {});
  EXPECT_EQ(empty.row_ptr(), (std::vector<std::size_t>{0, 0, 0, 0}));
  EXPECT_EQ(empty.nnz(), 0u);
}

TEST(Sparse, FromTripletsBuildsA200kEntryRowInLinearTime) {
  // One row of 200k entries, columns descending and each stored twice:
  // a supply net with that many terminals. A per-row insertion sort
  // takes tens of seconds here; the counting sort a few milliseconds.
  constexpr std::size_t kCols = 100000;
  std::vector<Triplet> t;
  t.reserve(2 * kCols);
  for (std::size_t c = kCols; c-- > 0;) {
    t.push_back({1, c, 1.0});
    t.push_back({1, c, static_cast<double>(c)});
  }
  const auto start = std::chrono::steady_clock::now();
  const auto m = SparseMatrix::from_triplets(3, kCols, std::move(t));
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 2.0);
  ASSERT_EQ(m.row_ptr(), (std::vector<std::size_t>{0, 0, kCols, kCols}));
  for (std::size_t c = 0; c < kCols; ++c) {
    ASSERT_EQ(m.col_idx()[c], c);
    ASSERT_EQ(m.values()[c], 1.0 + static_cast<double>(c));
  }
}

TEST(Sparse, ScaleAddIdentityAndTransposedArePinned) {
  // Off-diagonal entries plus one stored diagonal: scale_add_identity
  // appends its diagonal after the row's entries, and the two-addend
  // sum lands in column order.
  const auto m = SparseMatrix::from_triplets(
      3, 3, {{0, 1, 0.5}, {1, 1, 0.25}, {1, 0, -2.0}, {2, 0, 3.0}});
  const auto s = m.scale_add_identity(0.1, -1.0);
  EXPECT_EQ(s.row_ptr(), (std::vector<std::size_t>{0, 2, 4, 6}));
  EXPECT_EQ(s.col_idx(), (std::vector<std::size_t>{0, 1, 0, 1, 0, 2}));
  EXPECT_EQ(s.values(), (std::vector<double>{-1.0, 0.05, -0.2, -0.975,
                                             0.30000000000000004, -1.0}));
  const auto t = m.transposed();
  EXPECT_EQ(t.row_ptr(), (std::vector<std::size_t>{0, 2, 4, 4}));
  EXPECT_EQ(t.col_idx(), (std::vector<std::size_t>{1, 2, 0, 1}));
  EXPECT_EQ(t.values(), (std::vector<double>{-2.0, 3.0, 0.5, 0.25}));
}

TEST(Sparse, FromTripletsRejectsOutOfRangeInEveryBuildMode) {
  // Validation is a thrown DiagError, not an assert: the default build is
  // Release (-DNDEBUG), where asserts are compiled out and a bad triplet
  // used to corrupt the CSR assembly silently.
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), DiagError);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, 5, 1.0}}), DiagError);
  try {
    SparseMatrix::from_triplets(3, 3, {{0, 0, 1.0}, {7, 1, 2.0}});
    FAIL() << "expected DiagError";
  } catch (const DiagError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::Internal);
    EXPECT_EQ(e.diag().stage, Stage::GraphBuild);
    EXPECT_NE(e.diag().message.find("triplet"), std::string::npos);
  }
}

TEST(Sparse, MultiplyVector) {
  auto m = SparseMatrix::from_triplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  const auto y = m.multiply(std::vector<double>{1.0, 2.0, 3.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Sparse, MultiplyDenseMatchesVector) {
  Rng rng(4);
  std::vector<Triplet> t;
  for (int i = 0; i < 30; ++i) {
    t.push_back({rng.index(8), rng.index(8), rng.normal()});
  }
  const auto m = SparseMatrix::from_triplets(8, 8, std::move(t));
  Matrix x = Matrix::randn(8, 3, 1.0, rng);
  const Matrix y = m.multiply(x);
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<double> col(8);
    for (std::size_t r = 0; r < 8; ++r) col[r] = x(r, c);
    const auto ref = m.multiply(col);
    for (std::size_t r = 0; r < 8; ++r) {
      EXPECT_NEAR(y(r, c), ref[r], 1e-12);
    }
  }
}

TEST(Sparse, Identity) {
  const auto id = SparseMatrix::identity(4);
  EXPECT_EQ(id.nnz(), 4u);
  const auto y = id.multiply(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(Sparse, ScaleAddIdentity) {
  auto m = SparseMatrix::from_triplets(2, 2, {{0, 1, 2.0}});
  const auto s = m.scale_add_identity(3.0, -1.0);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(s.at(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(s.at(1, 1), -1.0);
}

TEST(Sparse, Transpose) {
  auto m = SparseMatrix::from_triplets(2, 3, {{0, 2, 5.0}, {1, 0, 7.0}});
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 7.0);
}

TEST(Sparse, PrunedDropsZeros) {
  auto m = SparseMatrix::from_triplets(2, 2,
                                       {{0, 0, 1.0}, {0, 1, 0.0}, {1, 1, 1e-15}});
  EXPECT_EQ(m.pruned(1e-12).nnz(), 1u);
}

TEST(Sparse, RowSums) {
  auto m = SparseMatrix::from_triplets(2, 2,
                                       {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 4.0}});
  const auto s = m.row_sums();
  EXPECT_DOUBLE_EQ(s[0], 3.0);
  EXPECT_DOUBLE_EQ(s[1], 4.0);
}

}  // namespace
}  // namespace gana
