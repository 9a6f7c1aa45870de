// Contiguous row-major matrix of doubles — the flat layout behind the
// analysis kernels (kmeans, peer comparison, the black-box model).
//
// The surface intentionally mimics the std::vector<std::vector<double>>
// idiom it replaces (size()/operator[]/push_back/assign return row
// views), so call sites read the same while the storage becomes one
// cache-friendly allocation whose inner loops auto-vectorize. Scratch
// reuse: resizeRows()/clearRows() change the logical shape without
// releasing capacity, which is what lets per-window analysis run with
// zero steady-state allocations.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace asdf {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    for (const auto& row : rows) {
      push_back(row.begin(), row.size());
    }
  }
  /// Implicit by design: legacy call sites hand in vector-of-rows and
  /// the flat kernels take Matrix; the conversion is a one-time copy.
  Matrix(const std::vector<std::vector<double>>& rows) {  // NOLINT
    if (!rows.empty()) reserveRows(rows.size(), rows.front().size());
    for (const auto& row : rows) push_back(row);
  }

  // --- vector-of-rows compatibility surface ---------------------------
  /// Number of rows (matches the outer vector's size()).
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  double* operator[](std::size_t r) { return row(r); }
  const double* operator[](std::size_t r) const { return row(r); }

  void push_back(const std::vector<double>& row) {
    push_back(row.data(), row.size());
  }
  void push_back(std::initializer_list<double> row) {
    push_back(row.begin(), row.size());
  }
  void push_back(const double* src, std::size_t n) {
    if (rows_ == 0 && cols_ == 0) {
      cols_ = n;
    } else if (n != cols_) {
      throw std::invalid_argument("Matrix::push_back: row width mismatch");
    }
    data_.insert(data_.end(), src, src + n);
    ++rows_;
  }
  /// n copies of `row` (mirrors vector::assign).
  void assign(std::size_t n, const std::vector<double>& row) {
    rows_ = 0;
    cols_ = 0;
    data_.clear();
    for (std::size_t i = 0; i < n; ++i) push_back(row);
  }
  void reserve(std::size_t rows) {
    if (cols_ > 0) data_.reserve(rows * cols_);
  }
  /// Reserve before the first push_back fixes the width.
  void reserveRows(std::size_t rows, std::size_t cols) {
    data_.reserve(rows * cols);
  }

  // --- flat surface ----------------------------------------------------
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }
  std::vector<double>& flat() { return data_; }
  const std::vector<double>& flat() const { return data_; }

  /// Reshapes to rows x cols without releasing capacity. Contents are
  /// unspecified (callers overwrite); use Matrix(r, c) for zeros.
  void resizeRows(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }
  /// Drops to zero rows, keeping the column width and capacity.
  void clearRows() {
    rows_ = 0;
    data_.clear();
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace asdf
