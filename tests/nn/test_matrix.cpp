#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

namespace socpinn::nn {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (double v : m.data()) EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(Matrix, FromDataValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, std::vector<double>{1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, std::vector<double>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Matrix, RowMajorIndexing) {
  Matrix m(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(0, 2), 3);
  EXPECT_DOUBLE_EQ(m(1, 0), 4);
  EXPECT_DOUBLE_EQ(m(1, 2), 6);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, RowVectorFactories) {
  const std::vector<double> vals{1, 2, 3};
  const Matrix r = Matrix::row_vector(vals);
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  const Matrix c = Matrix::column_vector(vals);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 1u);
}

TEST(Matrix, SetRowAndRowView) {
  Matrix m(2, 3);
  const std::vector<double> row{7, 8, 9};
  m.set_row(1, row);
  EXPECT_DOUBLE_EQ(m(1, 1), 8);
  auto view = m.row(1);
  EXPECT_DOUBLE_EQ(view[2], 9);
  EXPECT_THROW(m.set_row(0, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, MatmulKnownResult) {
  const Matrix a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  const Matrix b(3, 2, std::vector<double>{7, 8, 9, 10, 11, 12});
  const Matrix c = matmul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Matrix, MatmulRejectsMismatch) {
  EXPECT_THROW((void)matmul(Matrix(2, 3), Matrix(2, 3)),
               std::invalid_argument);
}

TEST(Matrix, TransposeVariantsAgree) {
  const Matrix a(3, 2, std::vector<double>{1, 2, 3, 4, 5, 6});
  const Matrix b(3, 4, std::vector<double>{1, 0, 2, 1, 3, 1, 0, 2, 0, 1, 1, 0});
  const Matrix expected = matmul(transpose(a), b);
  const Matrix got = matmul_transpose_a(a, b);
  EXPECT_TRUE(expected == got);

  // matmul_transpose_b(x, y) == x * y^T: x is 2x3, y is 4x3 -> 2x4.
  const Matrix x = transpose(a);
  const Matrix y(4, 3,
                 std::vector<double>{1, 2, 0, 1, 3, 0, 1, 1, 2, 0, 1, 1});
  const Matrix expected2 = matmul(x, transpose(y));
  const Matrix got2 = matmul_transpose_b(x, y);
  EXPECT_TRUE(expected2 == got2);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(transpose(transpose(a)) == a);
}

TEST(Matrix, ElementwiseOps) {
  const Matrix a(1, 3, std::vector<double>{1, 2, 3});
  const Matrix b(1, 3, std::vector<double>{4, 5, 6});
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 1), 7);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 2), 3);
  const Matrix prod = hadamard(a, b);
  EXPECT_DOUBLE_EQ(prod(0, 0), 4);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(0, 2), 6);
  const Matrix scaled2 = 2.0 * a;
  EXPECT_TRUE(scaled == scaled2);
}

TEST(Matrix, ElementwiseOpsRejectMismatch) {
  Matrix a(1, 2);
  const Matrix b(2, 1);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW((void)hadamard(a, b), std::invalid_argument);
}

TEST(Matrix, BroadcastBiasAndSumRows) {
  Matrix m(2, 2, std::vector<double>{1, 2, 3, 4});
  const Matrix bias(1, 2, std::vector<double>{10, 20});
  add_row_broadcast(m, bias);
  EXPECT_DOUBLE_EQ(m(0, 0), 11);
  EXPECT_DOUBLE_EQ(m(1, 1), 24);

  const Matrix sums = sum_rows(m);
  ASSERT_EQ(sums.rows(), 1u);
  EXPECT_DOUBLE_EQ(sums(0, 0), 11 + 13);
  EXPECT_DOUBLE_EQ(sums(0, 1), 22 + 24);
}

TEST(Matrix, BroadcastRejectsBadBias) {
  Matrix m(2, 2);
  EXPECT_THROW(add_row_broadcast(m, Matrix(1, 3)), std::invalid_argument);
  EXPECT_THROW(add_row_broadcast(m, Matrix(2, 2)), std::invalid_argument);
}

TEST(Matrix, NormsAndSums) {
  const Matrix m(1, 3, std::vector<double>{3, 4, 0});
  EXPECT_DOUBLE_EQ(m.squared_norm(), 25.0);
  EXPECT_DOUBLE_EQ(m.sum(), 7.0);
}

TEST(Matrix, ApplyTransformsEveryElement) {
  Matrix m(2, 2, std::vector<double>{1, -2, 3, -4});
  m.apply([](double x) { return x < 0 ? 0.0 : x; });
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

// MatrixT's members at both scalar types the tree instantiates: f64
// (nn::Matrix, training and evaluation) and f32 (the serve panels). The
// Matrix.* cases above keep the f64 training ops.
template <typename T>
class MatrixOf : public ::testing::Test {};

using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(MatrixOf, Scalars);

TYPED_TEST(MatrixOf, ConstructorsAndFactories) {
  using T = TypeParam;
  const MatrixT<T> m(2, 3, T(1.5));
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (const T v : m.data()) EXPECT_EQ(v, T(1.5));

  const MatrixT<T> d(2, 2, std::vector<T>{1, 2, 3, 4});
  EXPECT_EQ(d(1, 0), T(3));
  EXPECT_THROW(MatrixT<T>(2, 2, std::vector<T>{1, 2, 3}),
               std::invalid_argument);

  EXPECT_EQ(MatrixT<T>::zeros(2, 2).sum(), T(0));
  EXPECT_EQ(MatrixT<T>::full(2, 2, T(3)).sum(), T(12));
  const std::vector<T> vals{1, 2, 3};
  const auto r = MatrixT<T>::row_vector(vals);
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  const auto c = MatrixT<T>::column_vector(vals);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_EQ(c(2, 0), T(3));
}

TYPED_TEST(MatrixOf, ConstructorRejectsSizeOverflow) {
  using T = TypeParam;
  // 2^32 x 2^32 wraps to 0 elements and 2^32 x (2^32 + 1) to 2^32: without
  // the check, an empty buffer would pose as the matrix, or a 2^32-element
  // buffer would be allocated for it.
  const std::size_t big = std::size_t{1} << 32;
  EXPECT_THROW(MatrixT<T>(big, big), std::length_error);
  EXPECT_THROW(MatrixT<T>(big, big + 1), std::length_error);
  EXPECT_THROW(MatrixT<T>(SIZE_MAX, 2, T(1)), std::length_error);
  EXPECT_THROW(MatrixT<T>(big, big, std::vector<T>{}), std::length_error);
  // A zero dimension is an empty matrix, whatever the other one says.
  const MatrixT<T> empty(0, SIZE_MAX);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.cols(), SIZE_MAX);
}

TYPED_TEST(MatrixOf, AtRowAndSetRowAreBoundsChecked) {
  using T = TypeParam;
  MatrixT<T> m(2, 3);
  const MatrixT<T>& cm = m;
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 3), std::out_of_range);
  EXPECT_THROW((void)cm.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)cm.at(0, 3), std::out_of_range);
  EXPECT_THROW((void)m.row(2), std::out_of_range);
  EXPECT_THROW((void)cm.row(2), std::out_of_range);

  const std::vector<T> row{7, 8, 9};
  m.set_row(1, row);
  EXPECT_EQ(cm.at(1, 1), T(8));
  EXPECT_EQ(cm.row(1)[2], T(9));
  m.at(0, 2) = T(-1);
  EXPECT_EQ(m(0, 2), T(-1));
  EXPECT_THROW(m.set_row(2, row), std::out_of_range);
  EXPECT_THROW(m.set_row(0, std::vector<T>{1}), std::invalid_argument);
}

TYPED_TEST(MatrixOf, InPlaceOpsCheckShape) {
  using T = TypeParam;
  MatrixT<T> a(1, 3, std::vector<T>{1, 2, 3});
  const MatrixT<T> b(1, 3, std::vector<T>{4, 5, 6});
  a += b;
  EXPECT_EQ(a(0, 2), T(9));
  a -= b;
  EXPECT_EQ(a(0, 2), T(3));
  a *= T(2);
  EXPECT_EQ(a(0, 1), T(4));
  EXPECT_EQ(a.sum(), T(12));
  EXPECT_EQ(a.squared_norm(), T(4 + 16 + 36));
  a.apply([](T x) { return x > T(3) ? T(0) : x; });
  EXPECT_EQ(a.sum(), T(2));

  const MatrixT<T> tall(3, 1);
  EXPECT_THROW(a += tall, std::invalid_argument);
  EXPECT_THROW(a -= tall, std::invalid_argument);
  EXPECT_EQ(a.sum(), T(2));  // a failed op leaves the operand untouched
}

TYPED_TEST(MatrixOf, ResizeReusesCapacityAndKeepsShape) {
  using T = TypeParam;
  MatrixT<T> m(4, 8, T(1));
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 8u);
  EXPECT_EQ(m.size(), 32u);
  const T* base = m.data().data();
  m.resize(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m.fill(T(2.5));
  for (const T v : m.data()) EXPECT_EQ(v, T(2.5));
  m(1, 2) = T(-1);
  EXPECT_EQ(m(1, 2), T(-1));
  // Shrinking and regrowing within the original 32 elements keeps the
  // buffer: the allocation-free workspace contract.
  m.resize(8, 4);
  EXPECT_EQ(m.size(), 32u);
  EXPECT_EQ(m.data().data(), base);
}

TYPED_TEST(MatrixOf, ConvertingCopyCastsEachElement) {
  using T = TypeParam;
  const Matrix src(2, 2, std::vector<double>{0.1, -2.0, 1e-3, 3.0});
  const MatrixT<T> dst(src);
  ASSERT_EQ(dst.rows(), 2u);
  ASSERT_EQ(dst.cols(), 2u);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst.data()[i], static_cast<T>(src.data()[i]));
  }
  // And back: f64 -> T -> f64 is exact at T = double.
  const Matrix back(dst);
  if constexpr (std::is_same_v<T, double>) {
    EXPECT_TRUE(back == src);
  }
}

}  // namespace
}  // namespace socpinn::nn
