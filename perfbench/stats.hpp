// Pure helpers of the benchmark program: percentile selection, quartiles,
// self time of a span, and the order-independent report digest. Kept free
// of any STRATA type so the unit tests exercise them directly.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Highest whole percentile (capped at 99) that leaves at least ten samples
/// beyond it: p such that n * (100 - p) / 100 >= 10. A tail read from fewer
/// than ten samples is one outlier, not a percentile. Throws when even the
/// median would have fewer than ten samples beyond it.
inline int TailPercentile(std::size_t n) {
  if (n < 20) {
    throw std::invalid_argument("TailPercentile: fewer than 20 samples");
  }
  // Largest p with (100 - p) * n >= 1000, in integer arithmetic.
  const std::size_t p = 100 - (1000 + n - 1) / n;
  return static_cast<int>(std::min<std::size_t>(p, 99));
}

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("Percentile: no samples");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("Median: no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// First, second and third quartile exactly as Python's
/// statistics.quantiles(values, n=4) (the default 'exclusive' method)
/// computes them, so spreads printed here match spread.py.
inline std::array<double, 3> Quartiles(std::vector<double> values) {
  const std::size_t ld = values.size();
  if (ld < 2) throw std::invalid_argument("Quartiles: need two samples");
  std::sort(values.begin(), values.end());
  std::array<double, 3> out{};
  const std::size_t m = ld + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return out;
}

/// A closed-open time interval [begin, end) in any one unit.
struct Interval {
  double begin = 0;
  double end = 0;
};

/// Length of the union of `children` clipped to `parent`: overlapping or
/// nested children count once, and the parts outside the parent not at all.
inline double CoveredLength(const Interval& parent,
                            std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0;
  double cursor = parent.begin;
  for (const Interval& child : children) {
    const double begin = std::max(child.begin, cursor);
    const double end = std::min(child.end, parent.end);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return covered;
}

/// Self time of a span: its duration minus the union of its child spans.
inline double SelfTime(const Interval& parent,
                       const std::vector<Interval>& children) {
  return (parent.end - parent.begin) - CoveredLength(parent, children);
}

/// The fields of one defect report that the output check compares.
struct ReportKey {
  std::int64_t job = 0;
  std::int64_t layer = 0;
  std::int64_t specimen = 0;
  std::int64_t cluster_count = 0;
  std::int64_t window_events = 0;
  std::int64_t noise_events = 0;

  friend bool operator==(const ReportKey&, const ReportKey&) = default;
  friend auto operator<=>(const ReportKey&, const ReportKey&) = default;
};

/// FNV-1a over the sorted reports: equal report multisets give equal
/// digests whatever order the pipeline delivered them in, and any changed
/// field, missing or extra report changes it.
inline std::uint64_t ReportDigest(std::vector<ReportKey> reports) {
  std::sort(reports.begin(), reports.end());
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  };
  for (const ReportKey& r : reports) {
    mix(r.job);
    mix(r.layer);
    mix(r.specimen);
    mix(r.cluster_count);
    mix(r.window_events);
    mix(r.noise_events);
  }
  return hash;
}

}  // namespace perfbench
