// The benchmark's own arithmetic: order statistics over per-op latencies,
// self time of a span, and ratios that carry their base. Kept apart from
// the workloads so `perfbench selfcheck` can pin every formula on
// hand-computed inputs before a single number is reported.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Ops that must lie strictly beyond the reported tail value.
inline constexpr size_t kTailBeyond = 10;

// Nearest-rank order statistic: the value of 1-based `rank` in ascending
// order. `values` need not be sorted. Requires 1 <= rank <= size.
double OrderStatistic(std::vector<double> values, size_t rank);

// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> values);

// Mean of the middle half of the sorted values (the n/4 smallest and n/4
// largest dropped); the plain mean below four values. Like the median it
// ignores a few stalls, but it moves smoothly, not in a jump, when the
// host slows down for part of the sampling window.
double InterquartileMean(std::vector<double> values);

// The tail is the highest nearest-rank percentile that still leaves
// kTailBeyond samples above it: rank n - 10 of n, the
// 100 * (n - 10) / n-th percentile (p99 at n = 1000, p90 at n = 100).
// Requires n > kTailBeyond.
size_t TailRank(size_t n);
double TailPercentile(size_t n);

// A half-open time interval [begin, end) in nanoseconds.
struct Interval {
  uint64_t begin = 0;
  uint64_t end = 0;
};

// Self time of `parent`: its duration minus the part of it covered by the
// union of `children` (clipped to the parent, overlaps counted once).
uint64_t SelfTimeNs(const Interval& parent, std::vector<Interval> children);

// num / base, reported together so a ratio never hides its denominator.
// A zero base gives value 0: the layer did no work of this kind.
struct Ratio {
  double value = 0.0;
  double base = 0.0;
};
Ratio MakeRatio(double num, double base);

// Runs every formula above on inputs with hand-computed answers; returns
// the failures (empty when all pass).
std::vector<std::string> SelfCheck();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
