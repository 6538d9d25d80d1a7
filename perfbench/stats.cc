#include "stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

double OrderStatistic(std::vector<double> values, size_t rank) {
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() >= 4 ? values.size() / 4 : 0;
  double sum = 0.0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

size_t TailRank(size_t n) { return n - kTailBeyond; }

double TailPercentile(size_t n) {
  return 100.0 * static_cast<double>(TailRank(n)) / static_cast<double>(n);
}

uint64_t SelfTimeNs(const Interval& parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  uint64_t covered = 0;
  uint64_t reach = parent.begin;  // end of the covered prefix so far
  for (const Interval& c : children) {
    const uint64_t begin = std::max(c.begin, reach);
    const uint64_t end = std::min(c.end, parent.end);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return parent.end - parent.begin - covered;
}

Ratio MakeRatio(double num, double base) {
  return {base > 0.0 ? num / base : 0.0, base};
}

namespace {

void Expect(std::vector<std::string>* failures, const std::string& what,
            double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::ostringstream msg;
    msg << what << ": got " << got << ", want " << want;
    failures->push_back(msg.str());
  }
}

}  // namespace

std::vector<std::string> SelfCheck() {
  std::vector<std::string> failures;

  // Tail percentile: exactly ten samples strictly above the reported one.
  for (size_t n : {11u, 48u, 100u, 1000u}) {
    std::vector<double> v;
    for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
    const double tail = OrderStatistic(v, TailRank(n));
    const auto beyond = std::count_if(v.begin(), v.end(),
                                      [&](double x) { return x > tail; });
    Expect(&failures, "samples beyond tail, n=" + std::to_string(n),
           static_cast<double>(beyond), kTailBeyond);
  }
  Expect(&failures, "tail percentile n=1000", TailPercentile(1000), 99.0);
  Expect(&failures, "tail percentile n=100", TailPercentile(100), 90.0);
  Expect(&failures, "median odd", Median({5, 1, 3}), 3.0);
  Expect(&failures, "median even", Median({4, 1, 3, 2}), 2.5);
  Expect(&failures, "interquartile mean drops the outer quarters",
         InterquartileMean({7, 1, 100, 3, 5, 2, 6, 4}), 4.5);
  Expect(&failures, "interquartile mean of three", InterquartileMean({1, 2, 6}),
         3.0);

  // Self time: 100 ns parent; children [10,30) and [20,50) overlap on
  // [20,30), and [90,120) sticks out of the parent: covered 40 + 10.
  Expect(&failures, "self time with overlap and overhang",
         static_cast<double>(
             SelfTimeNs({0, 100}, {{90, 120}, {10, 30}, {20, 50}})),
         50.0);
  Expect(&failures, "self time without children",
         static_cast<double>(SelfTimeNs({5, 25}, {})), 20.0);
  Expect(&failures, "self time fully covered",
         static_cast<double>(SelfTimeNs({5, 25}, {{0, 30}})), 0.0);

  // Ratios keep their base; an empty base reads as no work, not NaN.
  const Ratio r = MakeRatio(3, 12);
  Expect(&failures, "ratio value", r.value, 0.25);
  Expect(&failures, "ratio base", r.base, 12.0);
  const Ratio empty = MakeRatio(0, 0);
  Expect(&failures, "empty-base ratio value", empty.value, 0.0);
  Expect(&failures, "empty-base ratio base", empty.base, 0.0);
  return failures;
}

}  // namespace perfbench
