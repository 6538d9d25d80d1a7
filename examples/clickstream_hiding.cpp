// Web clickstream hiding (paper §1: "web usage log data that contain
// traces of sequences of actions taken by a user").
//
// A site operator wants to release session logs for research but must
// hide that users who view the pricing page immediately after a
// competitor-comparison page tend to reach the cancellation flow. The
// sensitive pattern carries occurrence constraints (paper §5): only
// *tight* navigation chains are telling, so the pattern is constrained
// with gap bounds — distant co-occurrences stay untouched, reducing
// distortion. Also demonstrates the constrained-pattern text syntax and
// a nonzero disclosure threshold ψ.

#include <iostream>

#include "src/constraints/constraints.h"
#include "src/hide/sanitizer.h"
#include "src/match/constrained_count.h"
#include "src/seq/io.h"

int main() {
  using namespace seqhide;

  // Session logs: one row per user session.
  const std::string kLog =
      "home compare pricing cancel\n"
      "home compare pricing faq cancel\n"
      "home pricing docs\n"
      "compare pricing cancel home\n"
      "home docs compare blog pricing support cancel\n"
      "home compare pricing cancel\n"
      "docs pricing home compare\n"
      "home compare pricing docs cancel\n";
  Result<SequenceDatabase> parsed = ReadDatabaseFromString(kLog);
  if (!parsed.ok()) {
    std::cerr << "bad log: " << parsed.status() << "\n";
    return 1;
  }
  SequenceDatabase db = std::move(parsed).value();
  std::cout << "sessions: " << db.size() << "\n";

  // The sensitive rule, in the constrained-pattern syntax: compare
  // directly followed by pricing (gap 0), cancellation within 2 clicks.
  Result<ConstrainedPattern> sensitive = ParseConstrainedPattern(
      &db.alphabet(), "compare ->[0] pricing ->[..2] cancel");
  if (!sensitive.ok()) {
    std::cerr << "bad pattern: " << sensitive.status() << "\n";
    return 1;
  }
  std::cout << "sensitive: compare ->[0] pricing ->[..2] cancel ("
            << sensitive->constraints.ToString() << ")\n";
  std::cout << "sessions with a sensitive occurrence: "
            << ConstrainedSupport(sensitive->pattern, sensitive->constraints,
                                  db)
            << "\n";

  // Hide down to a disclosure threshold of 1: at most one session may
  // keep a valid occurrence (the paper's ψ > 0 regime — the costliest
  // session to sanitize is disclosed unchanged).
  SanitizeOptions options = SanitizeOptions::HH();
  options.psi = 1;
  Result<SanitizeReport> report =
      Sanitize(&db, {sensitive->pattern}, {sensitive->constraints}, options);
  if (!report.ok()) {
    std::cerr << "sanitization failed: " << report.status() << "\n";
    return 1;
  }
  std::cout << "\n" << report->ToString() << "\n";
  std::cout << "\nreleased log ('^' marks removed clicks):\n"
            << WriteDatabaseToString(db);

  // The unconstrained pattern (compare ... pricing ... cancel anywhere in
  // the session) may legitimately survive: it was never sensitive.
  std::cout << "sessions still containing the *unconstrained* chain: "
            << ConstrainedSupport(sensitive->pattern, ConstraintSpec(), db)
            << " (allowed - only tight chains were sensitive)\n";
  return 0;
}
