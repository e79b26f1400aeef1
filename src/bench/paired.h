// Paired A/B arms for the realtime ratio gates.
//
// Wall-clock rates on a shared host drift from second to second, so a
// gate never compares one arm's best against the other arm's best: each
// pair runs its two arms back to back, in the same machine state, and
// keeps their two values together. A bench runs (and drops) its own
// warm-up pairs, then Adds each measured pair here and gates on one of
// the statistics below.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

namespace ros2::bench {

/// Upper median (the element at size/2 once sorted); 0 for no values.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + std::ptrdiff_t(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

/// One quantity (seconds or a rate) measured under arms A and B.
class Pairs {
 public:
  void Add(double a, double b) {
    a_.push_back(a);
    b_.push_back(b);
  }

  std::size_t size() const { return a_.size(); }
  /// The values of pair `i`; 0 past the last pair (see BestPair).
  double a(std::size_t i) const { return i < size() ? a_[i] : 0.0; }
  double b(std::size_t i) const { return i < size() ? b_[i] : 0.0; }

  /// a/b of pair `i`; 0 when b is not positive (a failed arm) or past the
  /// last pair.
  double Ratio(std::size_t i) const {
    return i < size() && b_[i] > 0.0 ? a_[i] / b_[i] : 0.0;
  }
  /// Median over pairs of a/b: an ambient spike that splits one pair
  /// cannot swing it.
  double MedianRatio() const {
    std::vector<double> ratios(size());
    for (std::size_t i = 0; i < size(); ++i) ratios[i] = Ratio(i);
    return Median(std::move(ratios));
  }
  /// The pair with the largest positive a/b; size() when there is none.
  std::size_t BestPair() const {
    std::size_t best = size();
    for (std::size_t i = 0; i < size(); ++i) {
      if (Ratio(i) > Ratio(best)) best = i;
    }
    return best;
  }

  double MedianA() const { return Median(a_); }
  double MedianB() const { return Median(b_); }
  double SumA() const { return std::accumulate(a_.begin(), a_.end(), 0.0); }
  double SumB() const { return std::accumulate(b_.begin(), b_.end(), 0.0); }

 private:
  std::vector<double> a_;
  std::vector<double> b_;
};

}  // namespace ros2::bench
