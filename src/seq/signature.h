// 64-bit symbol-presence signatures: a screen for "can this row hold the
// pattern at all?".
//
// A row supports a pattern S, and holds any of its matchings, only if it
// contains every symbol of S. Each symbol maps to one of 64 bits, and a
// sequence's signature is the OR of its symbols' bits; a row whose
// signature lacks a bit of the pattern's signature is therefore skipped
// without a scan. The map folds ids modulo 64 — Δ (-1) lands on bit 0
// next to ids 63, 127, … — so distinct symbols may share a bit and the
// screen keeps a superset of the supporting rows: it prunes, it never
// decides. The server's query loop and MappedDatabase::ValidateRows both
// use these functions, so the two signature builders agree bit for bit.

#ifndef SEQHIDE_SEQ_SIGNATURE_H_
#define SEQHIDE_SEQ_SIGNATURE_H_

#include <cstdint>

#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

inline uint64_t SymbolSignatureBit(SymbolId s) {
  return uint64_t{1} << ((static_cast<uint64_t>(s) + 1) & 63);
}

inline uint64_t SequenceSignature(SequenceView seq) {
  uint64_t sig = 0;
  for (size_t i = 0; i < seq.size(); ++i) sig |= SymbolSignatureBit(seq[i]);
  return sig;
}

}  // namespace seqhide

#endif  // SEQHIDE_SEQ_SIGNATURE_H_
