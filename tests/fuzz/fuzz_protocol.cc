// libFuzzer harness for the server's request parser (ParseRequest in
// src/serve/protocol.h), the first code every wire line reaches.
//
// Invariants checked on every input, beyond "does not crash under
// ASan/UBSan":
//   * ParseRequest returns OK or InvalidArgument — never another code;
//   * an accepted request re-serializes (SerializeRequest, the same
//     writer that persists durable-job specs) to a line that parses
//     again, with the same id, method and patterns, the same sanitize
//     fields for a sanitize request, and the same deadline when it is
//     finite (the writer maps a non-finite number to 0).
//
// Build: see fuzz_db_reader.cc. Seed corpus: tests/fuzz/corpus/protocol,
// the request lines of tests/serve_test.cc.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/serve/protocol.h"

namespace {

void Check(bool cond) {
  if (!cond) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using seqhide::serve::Method;
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  auto parsed = seqhide::serve::ParseRequest(line);
  Check(parsed.ok() || parsed.status().IsInvalidArgument());
  if (!parsed.ok()) return 0;

  auto again =
      seqhide::serve::ParseRequest(seqhide::serve::SerializeRequest(*parsed));
  Check(again.ok());
  Check(again->id == parsed->id);
  Check(again->method == parsed->method);
  Check(again->patterns == parsed->patterns);
  if (std::isfinite(parsed->deadline_ms)) {
    Check(again->deadline_ms == parsed->deadline_ms);
  }
  if (parsed->method == Method::kSanitize) {
    Check(again->psi == parsed->psi);
    Check(again->algo == parsed->algo);
    Check(again->seed == parsed->seed);
    Check(again->out == parsed->out);
    Check(again->job == parsed->job);
  }
  return 0;
}
