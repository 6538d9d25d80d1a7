// Medical event timelines (paper §1: "biomedical patient data that
// usually contain clinical measures at different moments in time", and
// §7.2: events with real time tags).
//
// A hospital releases per-patient event timelines for research but must
// hide evidence of the pattern "experimental-drug administration followed
// by an adverse reaction within 48 hours" — a real-time max-gap
// constraint. Events outside that window are medically routine and must
// survive. Also shows itemset sequences (§7.1) for multi-code visits.

#include <iostream>
#include <vector>

#include "src/hide/pipeline.h"
#include "src/itemset/itemset_match.h"
#include "src/seq/alphabet.h"
#include "src/temporal/timed_match.h"
#include "src/temporal/timed_sequence.h"

int main() {
  using namespace seqhide;

  Alphabet alphabet;
  const SymbolId admit = alphabet.Intern("ADMIT");
  const SymbolId drug_x = alphabet.Intern("DRUG_X");
  const SymbolId reaction = alphabet.Intern("ADVERSE");
  const SymbolId discharge = alphabet.Intern("DISCHARGE");

  // Timelines; times in hours since admission.
  auto timeline = [](std::vector<TimedEvent> events) {
    Result<TimedSequence> r = TimedSequence::Create(std::move(events));
    if (!r.ok()) {
      std::cerr << "bad timeline: " << r.status() << "\n";
      std::exit(1);
    }
    return std::move(r).value();
  };
  std::vector<TimedSequence> patients = {
      timeline({{admit, 0}, {drug_x, 10}, {reaction, 30}, {discharge, 90}}),
      timeline({{admit, 0}, {drug_x, 5}, {reaction, 200}, {discharge, 240}}),
      timeline({{admit, 0}, {reaction, 4}, {drug_x, 50}, {discharge, 70}}),
      timeline({{admit, 0}, {drug_x, 8}, {reaction, 40}, {drug_x, 100},
                {discharge, 120}}),
  };

  // Sensitive: DRUG_X followed by ADVERSE within 48 hours.
  TimeConstraintSpec within_48h;
  within_48h.max_gap_time = 48.0;
  const Sequence sensitive{drug_x, reaction};

  std::cout << "patients with a sensitive (<=48h) drug->reaction event "
               "pair:\n";
  for (size_t i = 0; i < patients.size(); ++i) {
    std::cout << "  patient " << i + 1 << ": "
              << CountTimedMatchings(sensitive, within_48h, patients[i])
              << " occurrence(s)   [" << patients[i].ToString(alphabet)
              << "]\n";
  }

  std::cout << "\nsanitizing...\n";
  Result<SanitizeReport> timed = SanitizeRows<TimedLanguage>(
      &patients, {sensitive}, {within_48h}, SanitizeOptions::HH());
  if (!timed.ok()) {
    std::cerr << "timed hiding failed: " << timed.status() << "\n";
    return 1;
  }
  std::cout << "marked " << timed->marks_introduced << " events in total\n\n";
  for (size_t i = 0; i < patients.size(); ++i) {
    std::cout << "  patient " << i + 1 << ": "
              << CountTimedMatchings(sensitive, within_48h, patients[i])
              << " occurrence(s)   [" << patients[i].ToString(alphabet)
              << "]\n";
  }
  std::cout << "(patient 2's distant pair and patient 3's reversed order "
               "were never sensitive and survive)\n";

  // -------------------------------------------------------------------
  // Itemset-sequence variant (§7.1): each visit records a *set* of codes;
  // hide "visit containing DRUG_X followed by visit containing ADVERSE".
  // -------------------------------------------------------------------
  std::cout << "\nitemset timelines (visit = set of codes):\n";
  ItemsetDatabase visits;
  const SymbolId lab = visits.alphabet().Intern("LAB");
  const SymbolId dx = visits.alphabet().Intern("DRUG_X");
  const SymbolId adv = visits.alphabet().Intern("ADVERSE");
  const SymbolId vitals = visits.alphabet().Intern("VITALS");
  visits.Add(ItemsetSequence{Itemset{lab, dx}, Itemset{adv, vitals}});
  visits.Add(ItemsetSequence{Itemset{lab}, Itemset{dx, vitals},
                             Itemset{lab, adv}});
  visits.Add(ItemsetSequence{Itemset{adv}, Itemset{dx}});  // reversed: safe

  std::vector<ItemsetSequence> sensitive_visits = {
      ItemsetSequence{Itemset{dx}, Itemset{adv}}};
  Result<SanitizeReport> report = SanitizeRows<ItemsetLanguage>(
      visits.mutable_sequences(), sensitive_visits, {},
      SanitizeOptions::HH());
  if (!report.ok()) {
    std::cerr << "itemset hiding failed: " << report.status() << "\n";
    return 1;
  }
  std::cout << "  support before: " << report->supports_before[0]
            << ", after: " << report->supports_after[0]
            << ", items marked: " << report->marks_introduced << "\n";
  for (size_t i = 0; i < visits.size(); ++i) {
    std::cout << "  record " << i + 1 << ": "
              << visits[i].ToString(visits.alphabet()) << "\n";
  }
  std::cout << "(unrelated codes like LAB/VITALS survive inside each "
               "visit)\n";
  return 0;
}
