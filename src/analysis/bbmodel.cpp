#include "analysis/bbmodel.h"

#include <cassert>
#include <cmath>
#include <sstream>

#include "analysis/kmeans.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/strings.h"

namespace asdf::analysis {

std::vector<double> BlackBoxModel::transform(
    const std::vector<double>& raw) const {
  assert(raw.size() == sigmas.size());
  std::vector<double> out(raw.size());
  transformInto(raw.data(), raw.size(), out.data());
  return out;
}

void BlackBoxModel::transformInto(const double* raw, std::size_t n,
                                  double* out) const {
  assert(n == sigmas.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::log1p(std::max(0.0, raw[i])) / sigmas[i];
  }
}

std::size_t BlackBoxModel::classify(const std::vector<double>& raw) const {
  return nearestCentroid(centroids, transform(raw));
}

BlackBoxModel trainBlackBoxModel(
    const std::vector<std::vector<double>>& rawTraining, int k, Rng& rng) {
  assert(!rawTraining.empty());
  const std::size_t dims = rawTraining.front().size();

  BlackBoxModel model;
  model.sigmas.assign(dims, 1.0);

  // One log1p per value: fill the training matrix with log(1+x), take
  // each metric's sigma from it, then divide in place. The quotient is
  // the one transformInto computes, bit for bit.
  Matrix transformed;
  transformed.resizeRows(rawTraining.size(), dims);
  std::vector<RunningStats> stats(dims);
  for (std::size_t r = 0; r < rawTraining.size(); ++r) {
    const std::vector<double>& raw = rawTraining[r];
    assert(raw.size() == dims);
    double* row = transformed.row(r);
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = std::log1p(std::max(0.0, raw[d]));
      stats[d].add(row[d]);
    }
  }
  for (std::size_t d = 0; d < dims; ++d) {
    const double s = stats[d].stddev();
    model.sigmas[d] = s > 1e-12 ? s : 1.0;
  }
  for (std::size_t r = 0; r < transformed.rows(); ++r) {
    double* row = transformed.row(r);
    for (std::size_t d = 0; d < dims; ++d) row[d] /= model.sigmas[d];
  }

  KMeansOptions options;
  options.k = k;
  model.centroids = std::move(kmeans(transformed, options, rng).centroids);
  return model;
}

std::string serializeModel(const BlackBoxModel& model) {
  std::ostringstream out;
  out << "sigmas";
  for (double s : model.sigmas) out << ',' << strformat("%.17g", s);
  out << '\n';
  for (std::size_t r = 0; r < model.centroids.rows(); ++r) {
    const double* c = model.centroids.row(r);
    out << "centroid";
    for (std::size_t d = 0; d < model.centroids.cols(); ++d) {
      out << ',' << strformat("%.17g", c[d]);
    }
    out << '\n';
  }
  return out.str();
}

BlackBoxModel deserializeModel(const std::string& text) {
  BlackBoxModel model;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    const auto cells = split(line, ',');
    std::vector<double> values;
    values.reserve(cells.size() - 1);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      double v = 0.0;
      if (!parseDouble(cells[i], v)) {
        throw ConfigError("black-box model: malformed number '" + cells[i] +
                          "'");
      }
      values.push_back(v);
    }
    if (cells.empty()) continue;
    if (cells[0] == "sigmas") {
      model.sigmas = std::move(values);
    } else if (cells[0] == "centroid") {
      if (!model.centroids.empty() && values.size() != model.centroids.cols()) {
        throw ConfigError("black-box model: centroid dimension mismatch");
      }
      model.centroids.push_back(values);
    } else {
      throw ConfigError("black-box model: unknown row tag '" + cells[0] + "'");
    }
  }
  if (model.sigmas.empty() || model.centroids.empty()) {
    throw ConfigError("black-box model: missing sigmas or centroids");
  }
  if (model.centroids.cols() != model.sigmas.size()) {
    throw ConfigError("black-box model: centroid dimension mismatch");
  }
  return model;
}

}  // namespace asdf::analysis
