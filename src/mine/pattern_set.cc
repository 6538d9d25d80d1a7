#include "src/mine/pattern_set.h"

#include <sstream>
#include <utility>

namespace seqhide {

void FrequentPatternSet::Add(Sequence pattern, size_t support) {
  if (patterns_.empty() || patterns_.rbegin()->first < pattern) {
    patterns_.emplace_hint(patterns_.end(), std::move(pattern), support);
    return;
  }
  patterns_[std::move(pattern)] = support;
}

bool FrequentPatternSet::Contains(const Sequence& pattern) const {
  return patterns_.find(pattern) != patterns_.end();
}

size_t FrequentPatternSet::SupportOf(const Sequence& pattern) const {
  auto it = patterns_.find(pattern);
  return it == patterns_.end() ? 0 : it->second;
}

size_t FrequentPatternSet::CountMissingFrom(
    const FrequentPatternSet& other) const {
  size_t missing = 0;
  for (const auto& [pattern, support] : patterns_) {
    (void)support;
    if (!other.Contains(pattern)) ++missing;
  }
  return missing;
}

std::string FrequentPatternSet::ToString(const Alphabet& alphabet) const {
  std::ostringstream out;
  for (const auto& [pattern, support] : patterns_) {
    out << pattern.ToString(alphabet) << "  (sup=" << support << ")\n";
  }
  return out.str();
}

}  // namespace seqhide
