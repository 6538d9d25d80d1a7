// Retail basket sequences — the classical sequential-pattern setting
// (paper §7.1): each customer's history is a sequence of *baskets* (sets
// of items). A retailer wants to publish purchase histories for market
// research, but the pattern "premium-formula purchase followed by a
// churn-indicator basket" is commercially sensitive.
//
// The pipeline: parse an itemset database from text, mine it (the
// classical GSP-style miner), hide the sensitive pattern with the §7.1
// two-level heuristic, re-mine, and report the M2-style pattern damage.

#include <iostream>

#include "src/hide/pipeline.h"
#include "src/itemset/itemset_io.h"
#include "src/itemset/itemset_match.h"
#include "src/itemset/itemset_mine.h"

int main() {
  using namespace seqhide;

  const std::string kHistories =
      "# one line per customer: baskets in time order\n"
      "(formula,diapers) (wipes) (competitor_coupon,formula)\n"
      "(formula) (competitor_coupon)\n"
      "(diapers,wipes) (formula,snacks) (competitor_coupon,snacks)\n"
      "(snacks) (wipes) (diapers)\n"
      "(formula,wipes) (snacks) (competitor_coupon)\n"
      "(diapers) (snacks,wipes)\n"
      "(formula) (wipes,diapers)\n"
      "(competitor_coupon) (formula)\n";
  Result<ItemsetDatabase> parsed =
      ReadItemsetDatabaseFromString(kHistories);
  if (!parsed.ok()) {
    std::cerr << "bad input: " << parsed.status() << "\n";
    return 1;
  }
  ItemsetDatabase db = std::move(parsed).value();
  std::cout << "customer histories: " << db.size() << "\n";

  // The sensitive churn signal: a basket containing formula followed by a
  // basket containing a competitor coupon.
  SymbolId formula = *db.alphabet().Lookup("formula");
  SymbolId coupon = *db.alphabet().Lookup("competitor_coupon");
  std::vector<ItemsetSequence> sensitive = {
      ItemsetSequence{Itemset{formula}, Itemset{coupon}}};
  std::cout << "sensitive: (formula) -> (competitor_coupon), support "
            << ItemsetSupport(sensitive[0], db) << "\n";

  // Mine the patterns an analyst would see before hiding.
  ItemsetMinerOptions miner;
  miner.min_support = 3;
  miner.max_items = 3;
  Result<FrequentItemsetPatterns> before =
      MineFrequentItemsetSequences(db, miner);
  if (!before.ok()) {
    std::cerr << "mining failed: " << before.status() << "\n";
    return 1;
  }
  std::cout << "frequent patterns before hiding (sigma=3): "
            << before->size() << "\n";

  // Hide completely with the two-level hierarchical heuristic.
  Result<SanitizeReport> report = SanitizeRows<ItemsetLanguage>(
      db.mutable_sequences(), sensitive, {}, SanitizeOptions::HH());
  if (!report.ok()) {
    std::cerr << "hiding failed: " << report.status() << "\n";
    return 1;
  }
  std::cout << "hid the pattern by removing " << report->marks_introduced
            << " items across " << report->sequences_sanitized
            << " histories\n";

  Result<FrequentItemsetPatterns> after =
      MineFrequentItemsetSequences(db, miner);
  if (!after.ok()) {
    std::cerr << "mining failed: " << after.status() << "\n";
    return 1;
  }
  size_t lost = 0;
  for (const auto& [pattern, support] : *before) {
    (void)support;
    if (after->find(pattern) == after->end()) ++lost;
  }
  std::cout << "frequent patterns after hiding: " << after->size() << " ("
            << lost << " of " << before->size()
            << " lost; M2 = " << static_cast<double>(lost) / before->size()
            << ")\n";

  std::cout << "\nreleased histories:\n"
            << WriteItemsetDatabaseToString(db);
  std::cout << "sensitive support after release: "
            << ItemsetSupport(sensitive[0], db) << "\n";
  return 0;
}
