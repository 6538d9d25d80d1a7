#include "src/obs/telemetry/prometheus.h"

#include <sstream>

#include "src/common/durable_file.h"

namespace seqhide {
namespace obs {
namespace telemetry {
namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// Escapes a label value per the exposition format: backslash, double
// quote and newline.
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string PromMetricName(std::string_view name) {
  std::string out = "seqhide_";
  out.reserve(out.size() + name.size());
  for (char c : name) out += IsNameChar(c) ? c : '_';
  return out;
}

std::string WritePrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;

  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PromMetricName(name) + "_total";
    out << "# TYPE " << prom << " counter\n";
    out << prom << ' ' << value << '\n';
  }

  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PromMetricName(name);
    out << "# TYPE " << prom << " gauge\n";
    out << prom << ' ' << value << '\n';
  }

  for (const auto& [name, data] : snapshot.histograms) {
    const std::string prom = PromMetricName(name);
    out << "# TYPE " << prom << " histogram\n";
    // Snapshot buckets are (inclusive lower bound, count), ascending and
    // sparse; the exposition wants cumulative counts by inclusive upper
    // bound. Bucket 0 holds only the value 0, bucket with lower bound L
    // covers [L, 2L - 1].
    uint64_t cumulative = 0;
    for (const auto& [lower, count] : data.buckets) {
      cumulative += count;
      const uint64_t upper = lower == 0 ? 0 : 2 * lower - 1;
      out << prom << "_bucket{le=\"" << upper << "\"} " << cumulative << '\n';
    }
    out << prom << "_bucket{le=\"+Inf\"} " << data.count << '\n';
    out << prom << "_sum " << data.sum << '\n';
    out << prom << "_count " << data.count << '\n';
  }

  if (!snapshot.spans.empty()) {
    out << "# TYPE seqhide_span_count_total counter\n";
    for (const auto& [path, data] : snapshot.spans) {
      out << "seqhide_span_count_total{path=\"" << EscapeLabelValue(path)
          << "\"} " << data.count << '\n';
    }
    out << "# TYPE seqhide_span_ns_total counter\n";
    for (const auto& [path, data] : snapshot.spans) {
      out << "seqhide_span_ns_total{path=\"" << EscapeLabelValue(path)
          << "\"} " << data.total_ns << '\n';
    }
  }

  return out.str();
}

Status WritePrometheusFile(const std::string& path,
                           const MetricsSnapshot& snapshot) {
  return WriteFileDurable(path, WritePrometheusText(snapshot),
                          {.open = "io.telemetry.prom.write",
                           .rename = "io.telemetry.prom.rename"});
}

}  // namespace telemetry
}  // namespace obs
}  // namespace seqhide
