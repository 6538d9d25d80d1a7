// Class-pattern hiding (paper §8 future work, "patterns as regular
// expressions"): a payment processor shares transaction-event sequences
// with partners, but must hide the fraud-team's detection signature —
// which is not one fixed sequence but a *family*: a high-risk login
// (new_device OR foreign_ip), any single event, then a payout within a
// window of 4 events. That family is a class pattern:
//
//     [new_device foreign_ip] . payout ; window 4
//
// Hiding each concrete sequence separately would miss family members;
// the class-pattern sanitizer hides them all at once.

#include <iostream>

#include "src/constraints/constraints.h"
#include "src/hide/pipeline.h"
#include "src/repat/class_pattern.h"
#include "src/seq/io.h"

int main() {
  using namespace seqhide;

  const std::string kEvents =
      "login new_device browse payout logout\n"
      "login foreign_ip mfa payout\n"
      "login browse payout\n"
      "new_device mfa review hold payout\n"
      "foreign_ip payout\n"
      "login browse browse logout\n";
  Result<SequenceDatabase> parsed = ReadDatabaseFromString(kEvents);
  if (!parsed.ok()) {
    std::cerr << "bad log: " << parsed.status() << "\n";
    return 1;
  }
  SequenceDatabase db = std::move(parsed).value();
  std::cout << "account histories: " << db.size() << "\n";

  // The signature as a class pattern + occurrence window.
  Result<ClassPattern> signature = ParseClassPattern(
      &db.alphabet(), "[new_device foreign_ip] . payout");
  if (!signature.ok()) {
    std::cerr << "bad pattern: " << signature.status() << "\n";
    return 1;
  }
  ConstraintSpec window = ConstraintSpec::Window(4);
  std::cout << "sensitive family: "
            << signature->ToString(db.alphabet()) << "  (window<=4)\n";
  std::cout << "histories matching the signature: "
            << ClassSupport(*signature, window, db) << "\n";
  // Note: "foreign_ip payout" does NOT match — the wildcard needs an
  // event between the risk signal and the payout.

  Result<SanitizeReport> report = SanitizeRows<ClassLanguage>(
      db.mutable_sequences(), {*signature}, {window}, SanitizeOptions::HH());
  if (!report.ok()) {
    std::cerr << "hiding failed: " << report.status() << "\n";
    return 1;
  }
  std::cout << "\nhidden with " << report->marks_introduced
            << " marks across " << report->sequences_sanitized
            << " histories\n";
  std::cout << "signature support after: " << report->supports_after[0]
            << "\n\nreleased log:\n"
            << WriteDatabaseToString(db);
  std::cout << "histories still matching: "
            << ClassSupport(*signature, window, db) << "\n";
  return 0;
}
