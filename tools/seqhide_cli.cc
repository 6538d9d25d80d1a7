// seqhide_cli — command-line front end for the library.
//
//   seqhide_cli stats    --db FILE
//   seqhide_cli support  --db FILE --pattern "a -> b"...
//   seqhide_cli mine     --db FILE --sigma N [--max-len N] [--top N]
//   seqhide_cli sanitize --db FILE --out FILE --pattern "a ->[0] b"...
//                        [--psi N] [--algo HH|HR|RH|RR] [--seed N]
//                        [--threads N] [--stage2 keep|delete|replace]
//                        [--stats-json FILE] [--trace-json FILE]
//                        [--deadline-seconds S] [--deadline-ms MS]
//                        [--max-table-bytes N]
//                        [--max-rounds N] [--round-size N]
//                        [--checkpoint FILE] [--checkpoint-every N]
//                        [--resume]
//   seqhide_cli convert  --db IN --out OUT --to text|binary
//   seqhide_cli inspect  --db FILE [--verify]
//
// On-disk formats (docs/binary-format.md): every db-loading seq command
// takes --db-format text|binary|auto (default auto: sniff the magic).
// Binary databases are served through the mmap reader — `stats` answers
// from the mapped file without materializing rows, `support` screens
// rows by their symbol signatures, `mine`/`sanitize` materialize first.
// `convert` translates between the formats (the binary side writes the
// current seqhidb version, so it also upgrades a v1 image); `inspect`
// prints the header and section table of a binary database and, with
// --verify, runs the full checksum + structural validation.
//
// --threads bounds the worker count for the parallel pipeline stages;
// 0 means "auto" (all hardware threads). Results are bit-identical for
// every --threads value.
//
// Robustness (docs/robustness.md): --deadline-seconds / --max-table-bytes /
// --max-rounds set the RunBudget; when it runs out the command still exits
// 0 with a DEGRADED report listing still-exposed patterns. --checkpoint
// writes a crash-safe snapshot every --checkpoint-every rounds; --resume
// (valueless) continues from it, producing the byte-identical database a
// never-interrupted run would have written. --input-mode strict|lenient
// (every db-loading command) selects how malformed input lines are
// handled. --inject-fault site:k[,site:k...] arms deterministic faults
// for testing recovery paths.
//
// --ledger appends a crash-safe JSONL telemetry stream (run_start, one
// line per pipeline event, periodic samples, run_end with the final
// metrics snapshot); --metrics-prom atomically rewrites a Prometheus
// text-exposition file every --telemetry-interval-ms while the run is
// live. Neither can fail the run: telemetry I/O errors warn and disable.
// --stats-json writes a machine-readable run report (options, per-pattern
// supports before/after, M1, per-stage wall times, obs counter dump) —
// format documented in docs/observability.md. --trace-json writes the
// run's trace spans in Chrome trace-event format (load in Perfetto or
// chrome://tracing) — format documented in docs/benchmarking.md.
//
// Flags are validated per command: an unknown or misplaced flag is a
// usage error (exit 1), not silently ignored.
//
// Patterns use the constrained-pattern syntax of
// src/constraints/constraints.h ("a ->[0] b ->[2..6] c ; window<=10").
// Exit code 0 on success, 1 on usage errors, 2 on runtime failures.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/string_util.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_json.h"
#include "src/obs/telemetry/prometheus.h"
#include "src/obs/telemetry/run_ledger.h"
#include "src/obs/telemetry/sampler.h"
#include "src/obs/telemetry/telemetry.h"
#include "src/obs/trace_events.h"
#include "src/constraints/constraints.h"
#include "src/eval/metrics.h"
#include "src/hide/pipeline.h"
#include "src/hide/sanitizer.h"
#include "src/hide/second_stage.h"
#include "src/itemset/itemset_io.h"
#include "src/itemset/itemset_match.h"
#include "src/itemset/itemset_mine.h"
#include "src/match/constrained_count.h"
#include "src/mine/prefix_span.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"

namespace seqhide {
namespace {

struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> flags;       // last value wins
  std::vector<std::string> patterns;              // repeated --pattern
};

void PrintUsage() {
  std::cerr <<
      "usage: seqhide_cli COMMAND [flags]\n"
      "commands:\n"
      "  stats    --db FILE [--format seq|itemset]\n"
      "  support  --db FILE --pattern P [--pattern P ...]\n"
      "  mine     --db FILE --sigma N [--max-len N] [--top N]\n"
      "           [--format seq|itemset]\n"
      "  sanitize --db FILE --out FILE --pattern P [--pattern P ...]\n"
      "           [--psi N] [--algo HH|HR|RH|RR] [--seed N]\n"
      "           [--threads N (0=auto)]\n"
      "           [--stage2 keep|delete|replace] [--format seq|itemset]\n"
      "           [--stats-json FILE] [--trace-json FILE]\n"
      "           [--ledger FILE] [--metrics-prom FILE]\n"
      "           [--telemetry-interval-ms N (default 500)]\n"
      "           [--deadline-seconds S] [--deadline-ms MS]\n"
      "           [--max-table-bytes N]\n"
      "           [--max-rounds N] [--round-size N]\n"
      "           [--checkpoint FILE] [--checkpoint-every N] [--resume]\n"
      "  convert  --db IN --out OUT --to text|binary\n"
      "  inspect  --db FILE [--verify]\n"
      "common:    [--input-mode strict|lenient] [--inject-fault site:k,...]\n"
      "           [--db-format text|binary|auto] (seq commands; default "
      "auto)\n"
      "pattern syntax (seq):     \"a -> b\", \"a ->[0] b ->[2..6] c ; "
      "window<=10\"\n"
      "pattern syntax (itemset): \"(formula) (coupon,snacks)\"\n";
}

// "--format itemset" switches stats/mine/sanitize to the classical
// itemset-sequence setting (paper section 7.1).
Result<bool> IsItemsetFormat(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("format");
  if (it == flags.end() || it->second == "seq") return false;
  if (it->second == "itemset") return true;
  return Status::InvalidArgument("--format must be 'seq' or 'itemset'");
}

bool ParseArgs(int argc, char** argv, ParsedArgs* out) {
  if (argc < 2) return false;
  out->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.size() < 3 || flag[0] != '-' || flag[1] != '-') return false;
    flag = flag.substr(2);
    if (flag == "resume" || flag == "verify") {  // the valueless flags
      out->flags[flag] = "true";
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "pattern") {
      out->patterns.push_back(value);
    } else {
      out->flags[flag] = value;
    }
  }
  return true;
}

// Per-command flag whitelist: a flag the command does not consume is a
// usage error, not something to silently ignore (a typo like
// --stats-jsn must not produce a run with no report).
Status ValidateFlags(const ParsedArgs& args) {
  struct CommandSpec {
    bool patterns;  // --pattern accepted
    std::vector<const char*> flags;
  };
  static const std::map<std::string, CommandSpec> kCommands = {
      {"stats",
       {false, {"db", "format", "db-format", "input-mode", "inject-fault"}}},
      {"support", {true, {"db", "db-format", "input-mode", "inject-fault"}}},
      {"mine",
       {false,
        {"db", "sigma", "max-len", "top", "format", "db-format", "input-mode",
         "inject-fault"}}},
      {"sanitize",
       {true,
        {"db", "out", "psi", "algo", "seed", "threads", "stage2",
         "format",
         "db-format", "stats-json", "trace-json", "input-mode", "inject-fault",
         "ledger", "metrics-prom", "telemetry-interval-ms",
         "deadline-seconds", "deadline-ms", "max-table-bytes", "max-rounds",
         "round-size",
         "checkpoint", "checkpoint-every", "resume"}}},
      {"convert",
       {false,
        {"db", "out", "to", "db-format", "input-mode", "inject-fault"}}},
      {"inspect", {false, {"db", "verify", "inject-fault"}}},
  };
  // --format itemset runs its own loader and Algorithm 1 on itemset rows
  // (SanitizeRows, src/hide/pipeline.h) with default options: none of the
  // seq pipeline's input-format, strategy, thread, budget, checkpoint,
  // fault or telemetry flags reach it, so each of them is a usage error
  // there.
  static const std::map<std::string, CommandSpec> kItemsetCommands = {
      {"stats", {false, {"db", "format"}}},
      {"mine", {false, {"db", "sigma", "max-len", "top", "format"}}},
      {"sanitize", {true, {"db", "out", "psi", "format", "stats-json"}}},
  };
  auto format = args.flags.find("format");
  const bool itemset = format != args.flags.end() && format->second == "itemset";
  const auto& commands = itemset ? kItemsetCommands : kCommands;
  auto it = commands.find(args.command);
  if (it == commands.end()) return Status::OK();  // dispatch rejects it
  const CommandSpec& spec = it->second;
  if (!spec.patterns && !args.patterns.empty()) {
    return Status::InvalidArgument("'" + args.command +
                                   "' does not accept --pattern");
  }
  for (const auto& [flag, value] : args.flags) {
    bool known = false;
    for (const char* allowed : spec.flags) {
      if (flag == allowed) known = true;
    }
    if (!known) {
      return Status::InvalidArgument(
          "unknown flag --" + flag + " for '" + args.command +
          (itemset ? " --format itemset'" : "'"));
    }
  }
  return Status::OK();
}

Result<size_t> FlagAsSize(const ParsedArgs& args, const std::string& name,
                          size_t fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  auto v = ParseInt64(it->second);
  if (!v.has_value() || *v < 0) {
    return Status::InvalidArgument("--" + name + " needs a non-negative int");
  }
  return static_cast<size_t>(*v);
}

Result<double> FlagAsDouble(const ParsedArgs& args, const std::string& name,
                            double fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  auto v = ParseDouble(it->second);
  if (!v.has_value() || *v < 0.0) {
    return Status::InvalidArgument("--" + name +
                                   " needs a non-negative number");
  }
  return *v;
}

Result<ReadOptions> ReadOptionsFromFlags(const ParsedArgs& args) {
  ReadOptions opts;
  if (auto it = args.flags.find("input-mode"); it != args.flags.end()) {
    SEQHIDE_ASSIGN_OR_RETURN(opts.mode, ParseInputMode(it->second));
  }
  return opts;
}

// --stage2 keep|delete|replace: nullopt for keep (the Δs stay), else the
// ReleaseMarks policy. Parsed before the sanitize so a bad value runs
// nothing.
Result<std::optional<ReleasePolicy>> Stage2FromFlags(const ParsedArgs& args) {
  auto it = args.flags.find("stage2");
  if (it == args.flags.end() || it->second == "keep") {
    return std::optional<ReleasePolicy>();
  }
  if (it->second == "delete") {
    return std::optional<ReleasePolicy>(ReleasePolicy::kDelete);
  }
  if (it->second == "replace") {
    return std::optional<ReleasePolicy>(ReleasePolicy::kLeastHarm);
  }
  return Status::InvalidArgument("--stage2 must be keep, delete or replace");
}

enum class DbFormat { kText, kBinary };

// Resolves --db-format for `path`: an explicit text/binary wins, auto
// (the default) sniffs the seqhidb magic.
Result<DbFormat> ResolveDbFormat(const ParsedArgs& args,
                                 const std::string& path) {
  std::string value = "auto";
  if (auto it = args.flags.find("db-format"); it != args.flags.end()) {
    value = it->second;
  }
  if (value == "text") return DbFormat::kText;
  if (value == "binary") return DbFormat::kBinary;
  if (value != "auto") {
    return Status::InvalidArgument(
        "--db-format must be 'text', 'binary' or 'auto'");
  }
  SEQHIDE_ASSIGN_OR_RETURN(bool binary, FileLooksLikeBinaryDatabase(path));
  return binary ? DbFormat::kBinary : DbFormat::kText;
}

// Loads --db honoring --db-format and --input-mode. A binary database is
// materialized through the validating ToDatabase() path (--input-mode
// applies to text input only). In lenient mode skipped text lines are
// summarized on stderr (and land in the stats-json robustness block when
// `report` is threaded through to it).
Result<SequenceDatabase> LoadDb(const ParsedArgs& args,
                                ReadReport* report = nullptr) {
  auto it = args.flags.find("db");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("--db FILE is required");
  }
  SEQHIDE_ASSIGN_OR_RETURN(DbFormat format, ResolveDbFormat(args, it->second));
  if (format == DbFormat::kBinary) {
    SEQHIDE_ASSIGN_OR_RETURN(MappedDatabase mapped,
                             MappedDatabase::OpenMapped(it->second));
    return mapped.ToDatabase();
  }
  SEQHIDE_ASSIGN_OR_RETURN(ReadOptions read_opts, ReadOptionsFromFlags(args));
  ReadReport local;
  ReadReport& rep = report != nullptr ? *report : local;
  SEQHIDE_ASSIGN_OR_RETURN(SequenceDatabase db,
                           ReadDatabaseFromFile(it->second, read_opts, &rep));
  if (rep.lines_skipped > 0) {
    std::cerr << "warning: skipped " << rep.lines_skipped << " of "
              << rep.lines_total << " malformed input lines\n";
    for (const ReadError& e : rep.errors) {
      std::cerr << "  line " << e.line << ", column " << e.column << ": "
                << e.message << "\n";
    }
    if (rep.errors_total > rep.errors.size()) {
      std::cerr << "  ... and " << rep.errors_total - rep.errors.size()
                << " more\n";
    }
  }
  return db;
}

Result<std::vector<ConstrainedPattern>> ParsePatterns(
    const ParsedArgs& args, Alphabet* alphabet) {
  if (args.patterns.empty()) {
    return Status::InvalidArgument("at least one --pattern is required");
  }
  std::vector<ConstrainedPattern> out;
  for (const std::string& text : args.patterns) {
    SEQHIDE_ASSIGN_OR_RETURN(ConstrainedPattern p,
                             ParseConstrainedPattern(alphabet, text));
    out.push_back(std::move(p));
  }
  return out;
}

Result<std::string> DbPath(const ParsedArgs& args) {
  auto it = args.flags.find("db");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("--db FILE is required");
  }
  return it->second;
}

// Everything --stats-json needs from a sanitize run, normalized across
// the seq and itemset paths. The parallel and robustness blocks are only
// available for the seq pipeline.
struct StatsJsonInput {
  std::string format;
  size_t m1 = 0;
  size_t sequences_sanitized = 0;
  std::vector<size_t> supports_before;
  std::vector<size_t> supports_after;
  double elapsed_seconds = 0.0;
  StageTimings stages;
  // Parallel configuration (seq pipeline only, has_parallel): resolved
  // thread count and per-stage row workloads (see SanitizeReport).
  bool has_parallel = false;
  size_t threads_used = 1;
  size_t count_rows = 0;
  size_t verify_recount_rows = 0;
  size_t verify_rescan_rows = 0;
  // Robustness block (seq pipeline only, has_robustness): degraded-run
  // outcome, checkpoint/resume accounting, lenient-input summary, and
  // fault-injection accounting. Schema: docs/robustness.md.
  bool has_robustness = false;
  bool degraded = false;
  StatusCode stop_reason = StatusCode::kOk;
  std::vector<ExposedPattern> exposed;
  size_t rounds_completed = 0;
  size_t rounds_total = 0;
  size_t victims_skipped = 0;
  size_t checkpoints_written = 0;
  bool resumed = false;
  size_t saturated_rows = 0;
  ReadReport read_report;
  size_t faults_armed = 0;
  size_t faults_fired = 0;
  // Second stage (seq pipeline, --stage2 delete|replace only).
  std::optional<ReleaseReport> stage2;
};

// Writes the machine-readable run report next to the sanitized output.
// Schema: docs/observability.md. Key stability matters — tests and any
// downstream tooling parse this.
Status WriteStatsJson(const std::string& path, const ParsedArgs& args,
                      const StatsJsonInput& input,
                      const obs::MetricsSnapshot& snapshot) {
  obs::JsonWriter json;
  json.BeginObject();
  json.KeyInt("schema_version", 1);
  json.KeyString("command", args.command);

  json.Key("options").BeginObject();
  json.KeyString("format", input.format);
  for (const auto& [flag, value] : args.flags) {
    // checkpoint/resume/inject-fault are excluded so a resumed run's
    // stats-json is byte-comparable (timings aside) with the
    // uninterrupted run's; the telemetry sinks are side channels, not
    // inputs, and are excluded for the same reason.
    if (flag == "format" || flag == "stats-json" || flag == "checkpoint" ||
        flag == "resume" || flag == "inject-fault" || flag == "ledger" ||
        flag == "metrics-prom" || flag == "telemetry-interval-ms") {
      continue;
    }
    json.KeyString(flag, value);
  }
  json.EndObject();

  json.Key("patterns").BeginArray();
  for (const std::string& p : args.patterns) json.String(p);
  json.EndArray();

  json.Key("report").BeginObject();
  json.KeyUint("m1_marks_introduced", input.m1);
  json.KeyUint("sequences_sanitized", input.sequences_sanitized);
  json.Key("supports_before").BeginArray();
  for (size_t s : input.supports_before) json.Uint(s);
  json.EndArray();
  json.Key("supports_after").BeginArray();
  for (size_t s : input.supports_after) json.Uint(s);
  json.EndArray();
  json.KeyDouble("elapsed_seconds", input.elapsed_seconds);
  json.Key("stages").BeginObject();
  json.KeyDouble("count_seconds", input.stages.count_seconds);
  json.KeyDouble("select_seconds", input.stages.select_seconds);
  json.KeyDouble("mark_seconds", input.stages.mark_seconds);
  json.KeyDouble("verify_seconds", input.stages.verify_seconds);
  json.EndObject();
  if (input.has_parallel) {
    json.Key("parallel").BeginObject();
    json.KeyUint("threads_used", input.threads_used);
    json.KeyUint("count_rows", input.count_rows);
    json.KeyUint("verify_recount_rows", input.verify_recount_rows);
    json.KeyUint("verify_rescan_rows", input.verify_rescan_rows);
    json.EndObject();
  }
  if (input.has_robustness) {
    json.Key("robustness").BeginObject();
    json.KeyBool("degraded", input.degraded);
    json.KeyString("stop_reason", StatusCodeToString(input.stop_reason));
    json.KeyUint("rounds_completed", input.rounds_completed);
    json.KeyUint("rounds_total", input.rounds_total);
    json.KeyUint("victims_skipped", input.victims_skipped);
    json.KeyUint("checkpoints_written", input.checkpoints_written);
    json.KeyBool("resumed", input.resumed);
    json.KeyUint("saturated_rows", input.saturated_rows);
    json.Key("exposed").BeginArray();
    for (const ExposedPattern& e : input.exposed) {
      json.BeginObject();
      json.KeyUint("pattern_index", e.pattern_index);
      json.KeyUint("residual_support", e.residual_support);
      json.KeyUint("limit", e.limit);
      json.EndObject();
    }
    json.EndArray();
    json.Key("input").BeginObject();
    json.KeyUint("lines_total", input.read_report.lines_total);
    json.KeyUint("lines_skipped", input.read_report.lines_skipped);
    json.KeyUint("errors_total", input.read_report.errors_total);
    json.EndObject();
    json.Key("faults").BeginObject();
    json.KeyUint("armed", input.faults_armed);
    json.KeyUint("fired", input.faults_fired);
    json.EndObject();
    json.EndObject();
  }
  if (input.stage2.has_value()) {
    json.Key("stage2").BeginObject();
    json.KeyUint("replaced", input.stage2->replaced);
    json.KeyUint("deleted", input.stage2->deleted);
    json.KeyUint("kept", input.stage2->kept);
    json.Key("supports").BeginArray();
    for (size_t s : input.stage2->supports) json.Uint(s);
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();

  // Memory + thread-pool accounting. Timing/placement-dependent by
  // nature (RSS, parks, per-worker chunk splits), so like the timings
  // these live outside the determinism contract: tests scrub them.
  json.Key("memory").BeginObject();
  obs::telemetry::WriteMemoryMembers(obs::telemetry::MemorySnapshot::Capture(),
                                     &json);
  json.EndObject();
  {
    const ThreadPoolStats pool = ThreadPool::Shared().Stats();
    json.Key("thread_pool").BeginObject();
    json.KeyUint("regions", pool.regions);
    json.KeyUint("chunks_executed", pool.chunks_executed);
    json.KeyUint("parks", pool.parks);
    json.KeyUint("wakes", pool.wakes);
    json.KeyUint("workers_spawned", pool.workers_spawned);
    json.KeyUint("queue_peak", pool.queue_peak);
    json.Key("worker_chunks").BeginArray();
    for (uint64_t c : pool.worker_chunks) json.Uint(c);
    json.EndArray();
    json.EndObject();
  }

  obs::WriteSnapshotMembers(snapshot, &json);
  json.EndObject();

  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open --stats-json file: " + path);
  }
  out << json.str() << "\n";
  if (!out.good()) {
    return Status::Internal("failed writing --stats-json file: " + path);
  }
  return Status::OK();
}

Status RunStatsItemset(const ParsedArgs& args) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string path, DbPath(args));
  SEQHIDE_ASSIGN_OR_RETURN(ItemsetDatabase db,
                           ReadItemsetDatabaseFromFile(path));
  size_t elements = 0, items = 0, empty_elements = 0;
  for (const auto& seq : db.sequences()) {
    elements += seq.size();
    items += seq.TotalItems();
    for (size_t e = 0; e < seq.size(); ++e) {
      if (seq[e].empty()) ++empty_elements;
    }
  }
  std::cout << "sequences       " << db.size() << "\n"
            << "alphabet        " << db.alphabet().size() << "\n"
            << "total elements  " << elements << "\n"
            << "total items     " << items << "\n"
            << "empty (marked)  " << empty_elements << "\n";
  return Status::OK();
}

Status RunMineItemset(const ParsedArgs& args) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string path, DbPath(args));
  SEQHIDE_ASSIGN_OR_RETURN(ItemsetDatabase db,
                           ReadItemsetDatabaseFromFile(path));
  SEQHIDE_ASSIGN_OR_RETURN(size_t sigma, FlagAsSize(args, "sigma", 0));
  if (sigma == 0) {
    return Status::InvalidArgument("--sigma N (>=1) is required");
  }
  ItemsetMinerOptions opts;
  opts.min_support = sigma;
  SEQHIDE_ASSIGN_OR_RETURN(opts.max_items, FlagAsSize(args, "max-len", 0));
  SEQHIDE_ASSIGN_OR_RETURN(size_t top, FlagAsSize(args, "top", 0));
  SEQHIDE_ASSIGN_OR_RETURN(FrequentItemsetPatterns mined,
                           MineFrequentItemsetSequences(db, opts));
  std::cout << "# " << mined.size() << " frequent itemset patterns (sigma="
            << sigma << ")\n";
  size_t printed = 0;
  for (const auto& [pattern, support] : mined) {
    if (top != 0 && printed >= top) {
      std::cout << "... (" << mined.size() - printed << " more)\n";
      break;
    }
    std::cout << support << "\t" << pattern.ToString(db.alphabet()) << "\n";
    ++printed;
  }
  return Status::OK();
}

Status RunSanitizeItemset(const ParsedArgs& args) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string path, DbPath(args));
  SEQHIDE_ASSIGN_OR_RETURN(ItemsetDatabase db,
                           ReadItemsetDatabaseFromFile(path));
  auto out_it = args.flags.find("out");
  if (out_it == args.flags.end()) {
    return Status::InvalidArgument("--out FILE is required");
  }
  if (args.patterns.empty()) {
    return Status::InvalidArgument("at least one --pattern is required");
  }
  std::vector<ItemsetSequence> patterns;
  for (const std::string& text : args.patterns) {
    SEQHIDE_ASSIGN_OR_RETURN(
        ItemsetSequence p,
        ParseItemsetSequenceLine(&db.alphabet(), text));
    patterns.push_back(std::move(p));
  }
  SanitizeOptions opts;
  SEQHIDE_ASSIGN_OR_RETURN(opts.psi, FlagAsSize(args, "psi", 0));
  SEQHIDE_ASSIGN_OR_RETURN(
      SanitizeReport report,
      SanitizeRows<ItemsetLanguage>(db.mutable_sequences(), patterns, {},
                                    opts));
  std::cout << "items marked: " << report.marks_introduced
            << "  sequences sanitized: " << report.sequences_sanitized
            << "\n";
  for (size_t i = 0; i < patterns.size(); ++i) {
    std::cout << "pattern " << i + 1 << ": support "
              << report.supports_before[i] << " -> "
              << report.supports_after[i] << "\n";
  }
  SEQHIDE_RETURN_IF_ERROR(WriteItemsetDatabaseToFile(db, out_it->second));
  std::cout << "wrote " << out_it->second << "\n";
  if (auto it = args.flags.find("stats-json"); it != args.flags.end()) {
    StatsJsonInput stats;
    stats.format = "itemset";
    stats.m1 = report.marks_introduced;
    stats.sequences_sanitized = report.sequences_sanitized;
    stats.supports_before = report.supports_before;
    stats.supports_after = report.supports_after;
    stats.elapsed_seconds = report.elapsed_seconds;
    stats.stages = report.stages;
    SEQHIDE_RETURN_IF_ERROR(WriteStatsJson(
        it->second, args, stats, obs::MetricsRegistry::Default().Snapshot()));
    std::cout << "wrote stats " << it->second << "\n";
  }
  return Status::OK();
}

Status RunStats(const ParsedArgs& args) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string path, DbPath(args));
  SEQHIDE_ASSIGN_OR_RETURN(DbFormat format, ResolveDbFormat(args, path));
  DatabaseStats stats;
  if (format == DbFormat::kBinary) {
    // Answered straight off the mapping — no row materialization — after
    // the structural row check: a corrupt image fails with Corruption
    // instead of being summarized from clamped rows.
    SEQHIDE_ASSIGN_OR_RETURN(MappedDatabase mapped,
                             MappedDatabase::OpenMapped(path));
    SEQHIDE_RETURN_IF_ERROR(mapped.ValidateRows());
    stats = mapped.Stats();
  } else {
    SEQHIDE_ASSIGN_OR_RETURN(SequenceDatabase db, LoadDb(args));
    stats = db.Stats();
  }
  std::cout << "sequences       " << stats.num_sequences << "\n"
            << "alphabet        " << stats.alphabet_size << "\n"
            << "total symbols   " << stats.total_symbols << "\n"
            << "marked (delta)  " << stats.total_marks << "\n"
            << "length min/mean/max  " << stats.min_length << " / "
            << stats.mean_length << " / " << stats.max_length << "\n";
  return Status::OK();
}

Status RunSupport(const ParsedArgs& args) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string path, DbPath(args));
  SEQHIDE_ASSIGN_OR_RETURN(DbFormat format, ResolveDbFormat(args, path));
  // One answer path for both formats: the screened support loop over a
  // DatabaseView. A seqhidb image is answered off the mapping, after the
  // structural row check that also yields the row signatures the loop
  // screens with; a corrupt image fails here instead of being answered
  // from clamped rows.
  std::optional<MappedDatabase> mapped;
  std::vector<uint64_t> signatures;
  SequenceDatabase text_db;
  DatabaseView db;
  if (format == DbFormat::kBinary) {
    SEQHIDE_ASSIGN_OR_RETURN(mapped, MappedDatabase::OpenMapped(path));
    SEQHIDE_RETURN_IF_ERROR(mapped->ValidateRows(&signatures));
    db = mapped->view().WithSignatures(signatures);
  } else {
    SEQHIDE_ASSIGN_OR_RETURN(text_db, LoadDb(args));
    db = DatabaseView(text_db);
  }
  // Symbols the database has never seen get fresh ids, which no row
  // holds: support 0.
  Alphabet alphabet = db.alphabet();
  SEQHIDE_ASSIGN_OR_RETURN(std::vector<ConstrainedPattern> patterns,
                           ParsePatterns(args, &alphabet));
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Sequence& pattern = patterns[i].pattern;
    const ConstraintSpec& spec = patterns[i].constraints;
    std::cout << "pattern " << i + 1 << ": \"" << args.patterns[i]
              << "\"  support=" << ConstrainedSupport(pattern, spec, db);
    if (!spec.IsUnconstrained()) {
      std::cout << "  (unconstrained support="
                << ConstrainedSupport(pattern, ConstraintSpec(), db) << ")";
    }
    std::cout << "\n";
  }
  return Status::OK();
}

Status RunConvert(const ParsedArgs& args) {
  auto out_it = args.flags.find("out");
  if (out_it == args.flags.end()) {
    return Status::InvalidArgument("--out FILE is required");
  }
  auto to_it = args.flags.find("to");
  if (to_it == args.flags.end()) {
    return Status::InvalidArgument("--to text|binary is required");
  }
  // The input side goes through LoadDb: --db-format (default auto)
  // selects the reader, and a binary input is fully validated by the
  // materializing path, so convert doubles as an integrity check.
  SEQHIDE_ASSIGN_OR_RETURN(SequenceDatabase db, LoadDb(args));
  if (to_it->second == "binary") {
    SEQHIDE_RETURN_IF_ERROR(WriteBinaryDatabaseToFile(db, out_it->second));
  } else if (to_it->second == "text") {
    SEQHIDE_RETURN_IF_ERROR(WriteDatabaseToFile(db, out_it->second));
  } else {
    return Status::InvalidArgument("--to must be 'text' or 'binary'");
  }
  std::cout << "wrote " << out_it->second << " (" << db.size()
            << " sequences, " << to_it->second << ")\n";
  return Status::OK();
}

Status RunInspect(const ParsedArgs& args) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string path, DbPath(args));
  SEQHIDE_ASSIGN_OR_RETURN(MappedDatabase db,
                           MappedDatabase::OpenMapped(path));
  const BinaryHeader& h = db.header();
  std::cout << "seqhidb version  " << h.version << "\n"
            << "file bytes       " << h.file_bytes << "\n"
            << "sequences        " << h.num_rows << "\n"
            << "total symbols    " << h.num_symbols << "\n"
            << "alphabet         " << h.alphabet_size << "\n"
            << "sections (offset/bytes/fnv):\n";
  // Sections 4-8 hold the v1 indexes; a v2 image writes them empty.
  static const char* kSectionNames[kBinaryNumSections] = {
      "alpha_offsets", "alpha_names",     "row_offsets",
      "columns",       "v1 post_offsets", "v1 post_rows",
      "v1 pair_keys",  "v1 pair_offsets", "v1 pair_rows"};
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const BinarySection& s = h.sections[i];
    std::cout << "  " << i << " " << kSectionNames[i] << "  " << s.offset
              << " / " << s.bytes << " / " << std::hex << s.fnv << std::dec
              << "\n";
  }
  if (args.flags.count("verify") > 0) {
    SEQHIDE_RETURN_IF_ERROR(db.VerifyChecksums());
    std::cout << "checksums OK (all sections verified)\n";
  }
  return Status::OK();
}

Status RunMine(const ParsedArgs& args) {
  SEQHIDE_ASSIGN_OR_RETURN(SequenceDatabase db, LoadDb(args));
  SEQHIDE_ASSIGN_OR_RETURN(size_t sigma, FlagAsSize(args, "sigma", 0));
  if (sigma == 0) {
    return Status::InvalidArgument("--sigma N (>=1) is required");
  }
  MinerOptions opts;
  opts.min_support = sigma;
  SEQHIDE_ASSIGN_OR_RETURN(opts.max_length, FlagAsSize(args, "max-len", 0));
  SEQHIDE_ASSIGN_OR_RETURN(size_t top, FlagAsSize(args, "top", 0));
  SEQHIDE_ASSIGN_OR_RETURN(FrequentPatternSet mined,
                           MineFrequentSequences(db, opts));
  std::cout << "# " << mined.size() << " frequent patterns (sigma=" << sigma
            << ")\n";
  const size_t shown = top == 0 ? mined.size() : std::min(top, mined.size());
  size_t printed = 0;
  mined.ForEach([&](const std::vector<SymbolId>& pattern, size_t support) {
    if (printed++ >= shown) return;
    std::cout << support << "\t" << Sequence(pattern).ToString(db.alphabet())
              << "\n";
  });
  if (shown < mined.size()) {
    std::cout << "... (" << mined.size() - shown << " more)\n";
  }
  return Status::OK();
}

Status RunSanitize(const ParsedArgs& args) {
  SEQHIDE_ASSIGN_OR_RETURN(const std::optional<ReleasePolicy> stage2,
                           Stage2FromFlags(args));
  ReadReport read_report;
  SEQHIDE_ASSIGN_OR_RETURN(SequenceDatabase db, LoadDb(args, &read_report));
  auto out_it = args.flags.find("out");
  if (out_it == args.flags.end()) {
    return Status::InvalidArgument("--out FILE is required");
  }
  SEQHIDE_ASSIGN_OR_RETURN(std::vector<ConstrainedPattern> parsed,
                           ParsePatterns(args, &db.alphabet()));

  std::vector<Sequence> patterns;
  std::vector<ConstraintSpec> constraints;
  bool any_constrained = false;
  for (auto& p : parsed) {
    patterns.push_back(std::move(p.pattern));
    if (!p.constraints.IsUnconstrained()) any_constrained = true;
    constraints.push_back(std::move(p.constraints));
  }
  if (!any_constrained) constraints.clear();

  SanitizeOptions opts;
  SEQHIDE_ASSIGN_OR_RETURN(opts.psi, FlagAsSize(args, "psi", 0));
  SEQHIDE_ASSIGN_OR_RETURN(opts.seed, FlagAsSize(args, "seed", 1));
  SEQHIDE_ASSIGN_OR_RETURN(opts.num_threads, FlagAsSize(args, "threads", 1));
  SEQHIDE_ASSIGN_OR_RETURN(opts.budget.deadline_seconds,
                           FlagAsDouble(args, "deadline-seconds", 0.0));
  // --deadline-ms is the serving-world spelling of the same budget; when
  // both are given the tighter one wins.
  SEQHIDE_ASSIGN_OR_RETURN(const double deadline_ms,
                           FlagAsDouble(args, "deadline-ms", 0.0));
  if (deadline_ms > 0.0 && (opts.budget.deadline_seconds == 0.0 ||
                            deadline_ms / 1000.0 <
                                opts.budget.deadline_seconds)) {
    opts.budget.deadline_seconds = deadline_ms / 1000.0;
  }
  SEQHIDE_ASSIGN_OR_RETURN(opts.budget.max_table_bytes,
                           FlagAsSize(args, "max-table-bytes", 0));
  SEQHIDE_ASSIGN_OR_RETURN(opts.budget.max_mark_rounds,
                           FlagAsSize(args, "max-rounds", 0));
  SEQHIDE_ASSIGN_OR_RETURN(opts.mark_round_size,
                           FlagAsSize(args, "round-size", opts.mark_round_size));
  if (auto it = args.flags.find("checkpoint"); it != args.flags.end()) {
    opts.checkpoint_path = it->second;
  }
  SEQHIDE_ASSIGN_OR_RETURN(
      opts.checkpoint_every_rounds,
      FlagAsSize(args, "checkpoint-every", opts.checkpoint_every_rounds));
  opts.resume = args.flags.count("resume") > 0;
  std::string algo = "HH";
  if (auto it = args.flags.find("algo"); it != args.flags.end()) {
    algo = it->second;
  }
  if (algo == "HH") {
    opts.local = LocalStrategy::kHeuristic;
    opts.global = GlobalStrategy::kHeuristic;
  } else if (algo == "HR") {
    opts.local = LocalStrategy::kHeuristic;
    opts.global = GlobalStrategy::kRandom;
  } else if (algo == "RH") {
    opts.local = LocalStrategy::kRandom;
    opts.global = GlobalStrategy::kHeuristic;
  } else if (algo == "RR") {
    opts.local = LocalStrategy::kRandom;
    opts.global = GlobalStrategy::kRandom;
  } else {
    return Status::InvalidArgument("--algo must be HH, HR, RH or RR");
  }

  // Telemetry sinks. Opening the ledger can fail (bad path, injected
  // io.telemetry.ledger.open); per the failure policy that warns and
  // runs without a ledger rather than failing sanitization.
  std::unique_ptr<obs::telemetry::RunLedger> ledger;
  if (auto it = args.flags.find("ledger"); it != args.flags.end()) {
    auto opened = obs::telemetry::RunLedger::Open(it->second);
    if (!opened.ok()) {
      SEQHIDE_LOG(Warn) << "--ledger disabled: " << opened.status();
    } else {
      ledger = std::move(opened).value();
      ledger->Install();
      ledger->AppendRunStart("sanitize", DbPath(args).value_or(""),
                             opts.num_threads);
      obs::telemetry::RunLedger::InstallSignalFlushHook();
    }
  }
  std::string prom_path;
  if (auto it = args.flags.find("metrics-prom"); it != args.flags.end()) {
    prom_path = it->second;
  }
  std::unique_ptr<obs::telemetry::TelemetrySampler> sampler;
  if (ledger != nullptr || !prom_path.empty()) {
    obs::telemetry::TelemetrySampler::Options sampler_opts;
    SEQHIDE_ASSIGN_OR_RETURN(
        sampler_opts.interval_ms,
        FlagAsSize(args, "telemetry-interval-ms", sampler_opts.interval_ms));
    sampler_opts.prom_path = prom_path;
    sampler =
        std::make_unique<obs::telemetry::TelemetrySampler>(sampler_opts);
    sampler->Start();
  }

  Result<SanitizeReport> run = Sanitize(&db, patterns, constraints, opts);
  if (sampler != nullptr) sampler->Stop();
  if (!run.ok()) {
    if (ledger != nullptr) {
      ledger->AppendRunEnd(StatusCodeToString(run.status().code()),
                           obs::MetricsRegistry::Default().Snapshot(),
                           obs::telemetry::MemorySnapshot::Capture());
      ledger->Uninstall();
    }
    return run.status();
  }
  SanitizeReport report = std::move(run).value();
  std::cout << report.ToString() << "\n";

  std::optional<ReleaseReport> stage2_report;
  if (stage2.has_value()) {
    ReleaseOptions release;
    release.policy = *stage2;
    release.seed = opts.seed;
    SEQHIDE_ASSIGN_OR_RETURN(stage2_report,
                             ReleaseMarks(&db, patterns, constraints,
                                          report.supports_after, release));
    std::cout << "stage2: replaced " << stage2_report->replaced
              << ", deleted " << stage2_report->deleted << ", kept "
              << stage2_report->kept << " released_supports=[";
    for (size_t p = 0; p < stage2_report->supports.size(); ++p) {
      std::cout << (p == 0 ? "" : ",") << stage2_report->supports[p];
    }
    std::cout << "]\n";
  }

  SEQHIDE_RETURN_IF_ERROR(WriteDatabaseToFile(db, out_it->second));
  std::cout << "wrote " << out_it->second << "\n";

  // One snapshot feeds --stats-json, the final --metrics-prom rewrite and
  // the ledger's run_end record, so the three artifacts agree counter for
  // counter (the acceptance contract for the telemetry subsystem).
  const obs::MetricsSnapshot final_snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  if (auto it = args.flags.find("stats-json"); it != args.flags.end()) {
    StatsJsonInput stats;
    stats.format = "seq";
    stats.m1 = report.marks_introduced;
    stats.sequences_sanitized = report.sequences_sanitized;
    stats.supports_before = report.supports_before;
    stats.supports_after = report.supports_after;
    stats.elapsed_seconds = report.elapsed_seconds;
    stats.stages = report.stages;
    stats.has_parallel = true;
    stats.threads_used = report.threads_used;
    stats.count_rows = report.count_rows;
    stats.verify_recount_rows = report.verify_recount_rows;
    stats.verify_rescan_rows = report.verify_rescan_rows;
    stats.has_robustness = true;
    stats.degraded = report.degraded;
    stats.stop_reason = report.stop_reason;
    stats.exposed = report.exposed;
    stats.rounds_completed = report.rounds_completed;
    stats.rounds_total = report.rounds_total;
    stats.victims_skipped = report.victims_skipped;
    stats.checkpoints_written = report.checkpoints_written;
    stats.resumed = report.resumed;
    stats.saturated_rows = report.saturated_rows;
    stats.read_report = read_report;
    stats.faults_armed = FaultInjector::Default().ArmedCount();
    stats.faults_fired = FaultInjector::Default().FaultsFired();
    stats.stage2 = std::move(stage2_report);
    SEQHIDE_RETURN_IF_ERROR(
        WriteStatsJson(it->second, args, stats, final_snapshot));
    std::cout << "wrote stats " << it->second << "\n";
  }
  if (!prom_path.empty()) {
    const Status prom_status =
        obs::telemetry::WritePrometheusFile(prom_path, final_snapshot);
    if (!prom_status.ok()) {
      SEQHIDE_LOG(Warn) << "--metrics-prom final write failed: "
                        << prom_status;
    }
  }
  if (ledger != nullptr) {
    ledger->AppendRunEnd("ok", final_snapshot,
                         obs::telemetry::MemorySnapshot::Capture());
    ledger->Uninstall();
    std::cout << "wrote ledger " << ledger->path() << "\n";
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  ParsedArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 1;
  }
  if (Status status = ValidateFlags(args); !status.ok()) {
    std::cerr << "error: " << status << "\n";
    PrintUsage();
    return 1;
  }
  Result<bool> itemset = IsItemsetFormat(args.flags);
  if (!itemset.ok()) {
    std::cerr << "error: " << itemset.status() << "\n";
    return 1;
  }
  if (auto it = args.flags.find("inject-fault"); it != args.flags.end()) {
    Status armed = FaultInjector::Default().Arm(it->second);
    if (!armed.ok()) {
      std::cerr << "error: " << armed << "\n";
      return 1;
    }
  }

  // --trace-json (sanitize only, enforced above): capture every span the
  // run completes, dump them in Chrome trace-event format at the end.
  std::unique_ptr<obs::TraceEventRecorder> recorder;
  std::string trace_path;
  if (auto it = args.flags.find("trace-json"); it != args.flags.end()) {
    trace_path = it->second;
    recorder = std::make_unique<obs::TraceEventRecorder>();
    recorder->Install();
  }

  Status status = Status::OK();
  if (args.command == "stats") {
    status = *itemset ? RunStatsItemset(args) : RunStats(args);
  } else if (args.command == "support") {
    status = RunSupport(args);
  } else if (args.command == "mine") {
    status = *itemset ? RunMineItemset(args) : RunMine(args);
  } else if (args.command == "sanitize") {
    status = *itemset ? RunSanitizeItemset(args) : RunSanitize(args);
  } else if (args.command == "convert") {
    status = RunConvert(args);
  } else if (args.command == "inspect") {
    status = RunInspect(args);
  } else {
    PrintUsage();
    return 1;
  }

  if (recorder != nullptr) {
    recorder->Uninstall();
    if (status.ok()) {
      Status trace_status = recorder->WriteChromeTrace(trace_path);
      if (!trace_status.ok()) {
        std::cerr << "error: " << trace_status << "\n";
        return 1;
      }
      std::cout << "wrote trace " << trace_path << " (" << recorder->size()
                << " events)\n";
    }
  }
  if (!status.ok()) {
    std::cerr << "error: " << status << "\n";
    return status.IsInvalidArgument() ? 1 : 2;
  }
  return 0;
}

}  // namespace
}  // namespace seqhide

int main(int argc, char** argv) { return seqhide::Main(argc, argv); }
