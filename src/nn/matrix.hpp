#pragma once
/// \file matrix.hpp
/// Dense row-major matrix — the single tensor type of the NN substrate.
/// MatrixT<T> carries both sides: nn::Matrix (T = double) holds training
/// data, weights and gradients, and MatrixT<float> the reduced-precision
/// serve panels (nn/panel.hpp). Batched training samples are rows,
/// features are columns. The networks in this project are tiny (thousands
/// of parameters), so the training ops below favour clarity over
/// BLAS-grade performance; matmul is still written cache-friendly (ikj
/// loop order).

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/aligned.hpp"

namespace socpinn::nn {

template <typename T>
class MatrixT {
 public:
  /// Empty 0x0 matrix.
  MatrixT() = default;

  /// rows x cols matrix filled with `fill`. Throws std::length_error when
  /// rows * cols overflows.
  MatrixT(std::size_t rows, std::size_t cols, T fill = T(0))
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  /// Builds from row-major data; throws if sizes disagree.
  MatrixT(std::size_t rows, std::size_t cols, std::vector<T> data)
      // Copied, not moved: the default-allocated vector cannot donate its
      // buffer to the 64-byte-aligned storage. Construction-time only.
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    if (data_.size() != checked_size(rows, cols)) {
      throw std::invalid_argument("Matrix: data size != rows*cols");
    }
  }

  /// Element-converting copy, e.g. a trained f64 weight matrix to its f32
  /// serving image (static_cast per element).
  template <typename U>
  explicit MatrixT(const MatrixT<U>& other)
      : rows_(other.rows()),
        cols_(other.cols()),
        data_(other.data().begin(), other.data().end()) {}

  /// Factory helpers.
  [[nodiscard]] static MatrixT zeros(std::size_t rows, std::size_t cols) {
    return MatrixT(rows, cols, T(0));
  }
  [[nodiscard]] static MatrixT full(std::size_t rows, std::size_t cols, T v) {
    return MatrixT(rows, cols, v);
  }
  /// 1 x n row vector from values.
  [[nodiscard]] static MatrixT row_vector(std::span<const T> values) {
    return MatrixT(1, values.size(), {values.begin(), values.end()});
  }
  /// n x 1 column vector from values.
  [[nodiscard]] static MatrixT column_vector(std::span<const T> values) {
    return MatrixT(values.size(), 1, {values.begin(), values.end()});
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Unchecked element access (hot path).
  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  T operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws std::out_of_range.
  [[nodiscard]] T at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return (*this)(r, c);
  }
  T& at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return (*this)(r, c);
  }

  /// Raw row-major storage.
  [[nodiscard]] std::span<const T> data() const { return data_; }
  [[nodiscard]] std::span<T> data() { return data_; }

  /// View of one row; throws std::out_of_range.
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    if (r >= rows_) throw std::out_of_range("Matrix::row");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<T> row(std::size_t r) {
    if (r >= rows_) throw std::out_of_range("Matrix::row");
    return {data_.data() + r * cols_, cols_};
  }

  /// Copies `src` (length cols) into row r.
  void set_row(std::size_t r, std::span<const T> src) {
    if (src.size() != cols_) {
      throw std::invalid_argument("Matrix::set_row: length mismatch");
    }
    auto dst = row(r);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }

  /// Elementwise in-place operations (shapes must match; throws otherwise).
  MatrixT& operator+=(const MatrixT& other) {
    require_same_shape(other, "Matrix::operator+=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
  }
  MatrixT& operator-=(const MatrixT& other) {
    require_same_shape(other, "Matrix::operator-=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
  }
  MatrixT& operator*=(T scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
  }

  /// Applies f to every element in place. Templated (not std::function) so
  /// the per-element call inlines on the hot path.
  template <typename F>
  void apply(F&& f) {
    for (auto& v : data_) v = f(v);
  }

  /// Reshapes to rows x cols, reusing the existing allocation whenever the
  /// new size fits the current capacity (element values are unspecified
  /// afterwards — callers overwrite). This is the primitive that makes
  /// workspace buffers allocation-free in the steady state.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Sets every element to v.
  void fill(T v) {
    for (auto& x : data_) x = v;
  }

  /// Frobenius norm squared (sum of squared elements).
  [[nodiscard]] T squared_norm() const {
    T acc = 0;
    for (const T v : data_) acc += v * v;
    return acc;
  }

  /// Sum over all elements.
  [[nodiscard]] T sum() const {
    T acc = 0;
    for (const T v : data_) acc += v;
    return acc;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// 64-byte-aligned (see aligned.hpp): every panel base pointer sits on a
  /// cache-line / AVX-512-register boundary for the SIMD kernels.
  AlignedVector<T> data_;

  /// rows * cols, or std::length_error when the product wraps: a wrapped
  /// size would make an empty buffer look like a rows x cols matrix.
  static std::size_t checked_size(std::size_t rows, std::size_t cols) {
    std::size_t n = 0;
    if (__builtin_mul_overflow(rows, cols, &n)) {
      throw std::length_error("Matrix: rows*cols overflows size_t");
    }
    return n;
  }

  void require_same_shape(const MatrixT& other, const char* who) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) {
      throw std::invalid_argument(
          std::string(who) + ": shape mismatch (" + std::to_string(rows_) +
          "x" + std::to_string(cols_) + " vs " + std::to_string(other.rows_) +
          "x" + std::to_string(other.cols_) + ")");
    }
  }
};

/// The training-side matrix; the free ops below are defined on it only.
using Matrix = MatrixT<double>;

/// C = A * B. Throws on inner-dimension mismatch.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B without materializing the transpose.
[[nodiscard]] Matrix matmul_transpose_a(const Matrix& a, const Matrix& b);

/// C = A * B^T without materializing the transpose.
[[nodiscard]] Matrix matmul_transpose_b(const Matrix& a, const Matrix& b);

/// Transposed copy.
[[nodiscard]] Matrix transpose(const Matrix& m);

/// Elementwise sum / difference / product (Hadamard). Throw on mismatch.
[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);

/// Scalar product.
[[nodiscard]] Matrix operator*(Matrix m, double s);
[[nodiscard]] Matrix operator*(double s, Matrix m);

/// Adds a 1 x cols bias row to every row of m (broadcast).
void add_row_broadcast(Matrix& m, const Matrix& bias_row);

/// Sums rows into a 1 x cols row vector (gradient of a broadcast bias).
[[nodiscard]] Matrix sum_rows(const Matrix& m);

/// Strict equality of shape and elements.
[[nodiscard]] bool operator==(const Matrix& a, const Matrix& b);

}  // namespace socpinn::nn
