#include "harness/report.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>

#include "common/csv.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace gly::harness {

namespace {

std::string CellKey(const BenchmarkResult& r) {
  return r.graph + "/" + r.platform;
}

// Minimal flat-JSON field extraction, matched to ResultToJson's output
// shape (no whitespace, top-level fields before the "metrics" object).

std::string JsonUnescape(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::strtoul(std::string(s.substr(i + 1, 4)).c_str(), nullptr,
                           16));
          i += 4;
        }
        break;
      default: out += s[i];
    }
  }
  return out;
}

/// Scans a quoted JSON string starting at `pos` (the opening quote);
/// returns the index one past the closing quote, or npos.
size_t ScanJsonString(std::string_view text, size_t pos, std::string* out) {
  if (pos >= text.size() || text[pos] != '"') return std::string_view::npos;
  size_t end = pos + 1;
  while (end < text.size() && text[end] != '"') {
    end += (text[end] == '\\') ? 2 : 1;
  }
  if (end >= text.size()) return std::string_view::npos;
  *out = JsonUnescape(text.substr(pos + 1, end - pos - 1));
  return end + 1;
}

bool ExtractJsonString(std::string_view text, std::string_view key,
                       std::string* out) {
  std::string pattern = "\"" + std::string(key) + "\":";
  size_t pos = text.find(pattern);
  if (pos == std::string_view::npos) return false;
  return ScanJsonString(text, pos + pattern.size(), out) !=
         std::string_view::npos;
}

/// The unquoted value token of `"key":` (up to the next ',' or '}'), or
/// nullopt when the key is absent.
std::optional<std::string> RawJsonValue(std::string_view text,
                                        std::string_view key) {
  std::string pattern = "\"" + std::string(key) + "\":";
  size_t pos = text.find(pattern);
  if (pos == std::string_view::npos) return std::nullopt;
  pos += pattern.size();
  size_t end = text.find_first_of(",}", pos);
  if (end == std::string_view::npos) end = text.size();
  return std::string(text.substr(pos, end - pos));
}

Status MalformedField(std::string_view key, const std::string& raw) {
  return Status::InvalidArgument("malformed result field " +
                                 std::string(key) + ": '" + raw + "'");
}

// The typed extractors below leave `*out` untouched and return OK when the
// key is absent (older journals lack newer fields), and return
// InvalidArgument when the key is present but its value does not parse
// exactly — a corrupted field must never resume as 0/false.

/// A finite JSON number (strtod must consume the whole token; hex, inf and
/// nan spellings are rejected).
Status ExtractJsonNumber(std::string_view text, std::string_view key,
                         double* out) {
  std::optional<std::string> raw = RawJsonValue(text, key);
  if (!raw) return Status::OK();
  if (raw->empty() || raw->find_first_not_of("0123456789-+.eE") !=
                          std::string::npos ||
      (*raw)[0] == '+') {
    return MalformedField(key, *raw);
  }
  char* end = nullptr;
  const double value = std::strtod(raw->c_str(), &end);
  if (end != raw->c_str() + raw->size() || !std::isfinite(value)) {
    return MalformedField(key, *raw);
  }
  *out = value;
  return Status::OK();
}

/// A non-negative decimal integer that fits `T`.
template <typename T>
Status ExtractJsonUint(std::string_view text, std::string_view key, T* out) {
  std::optional<std::string> raw = RawJsonValue(text, key);
  if (!raw) return Status::OK();
  if (raw->empty() ||
      raw->find_first_not_of("0123456789") != std::string::npos) {
    return MalformedField(key, *raw);
  }
  errno = 0;
  const unsigned long long value = std::strtoull(raw->c_str(), nullptr, 10);
  if (errno == ERANGE || value > std::numeric_limits<T>::max()) {
    return MalformedField(key, *raw);
  }
  *out = static_cast<T>(value);
  return Status::OK();
}

/// Exactly `true` or `false`.
Status ExtractJsonBool(std::string_view text, std::string_view key,
                       bool* out) {
  std::optional<std::string> raw = RawJsonValue(text, key);
  if (!raw) return Status::OK();
  if (*raw != "true" && *raw != "false") return MalformedField(key, *raw);
  *out = *raw == "true";
  return Status::OK();
}

}  // namespace

std::string RenderRuntimeTable(const std::vector<BenchmarkResult>& results) {
  // Column order: (graph, platform) as first seen; row order: algorithms as
  // first seen.
  std::vector<std::string> columns;
  std::vector<AlgorithmKind> rows;
  for (const BenchmarkResult& r : results) {
    std::string key = CellKey(r);
    if (std::find(columns.begin(), columns.end(), key) == columns.end()) {
      columns.push_back(key);
    }
    if (std::find(rows.begin(), rows.end(), r.algorithm) == rows.end()) {
      rows.push_back(r.algorithm);
    }
  }
  std::ostringstream out;
  out << StringPrintf("%-8s", "algo");
  for (const std::string& c : columns) {
    out << StringPrintf(" %22s", c.c_str());
  }
  out << '\n';
  for (AlgorithmKind algo : rows) {
    out << StringPrintf("%-8s", AlgorithmKindName(algo).c_str());
    for (const std::string& c : columns) {
      const BenchmarkResult* cell = nullptr;
      for (const BenchmarkResult& r : results) {
        if (r.algorithm == algo && CellKey(r) == c) {
          cell = &r;
          break;
        }
      }
      if (cell == nullptr) {
        out << StringPrintf(" %22s", "?");
      } else if (!cell->status.ok()) {
        // "Missing values indicate failures."
        out << StringPrintf(" %22s", "-");
      } else {
        out << StringPrintf(" %22s",
                            FormatSeconds(cell->runtime_seconds).c_str());
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string RenderTepsTable(const std::vector<BenchmarkResult>& results,
                            AlgorithmKind algorithm) {
  std::ostringstream out;
  out << StringPrintf("%-12s %-12s %14s %14s\n", "graph", "platform", "kTEPS",
                      "runtime");
  for (const BenchmarkResult& r : results) {
    if (r.algorithm != algorithm) continue;
    if (!r.status.ok()) {
      out << StringPrintf("%-12s %-12s %14s %14s\n", r.graph.c_str(),
                          r.platform.c_str(), "-", "-");
    } else {
      out << StringPrintf("%-12s %-12s %14.0f %14s\n", r.graph.c_str(),
                          r.platform.c_str(), r.teps / 1e3,
                          FormatSeconds(r.runtime_seconds).c_str());
    }
  }
  return out.str();
}

std::string RenderFullReport(const Config& configuration,
                             const std::vector<BenchmarkResult>& results) {
  std::ostringstream out;
  out << "==== Graphalytics benchmark report ====\n\n";
  out << "-- configuration --\n" << configuration.ToString() << '\n';
  out << "-- runtime matrix (algorithm x graph/platform) --\n";
  out << RenderRuntimeTable(results) << '\n';

  // Robustness summary: how many cells needed retries, timed out, or saw
  // injected faults (the paper's "missing values", made auditable).
  uint64_t failed_cells = 0;
  uint64_t retried_cells = 0;
  uint64_t timed_out_cells = 0;
  uint64_t cancelled_cells = 0;
  uint64_t stalled_cells = 0;
  uint64_t total_attempts = 0;
  uint64_t injected_faults = 0;
  uint64_t resumed_cells = 0;
  uint64_t recoveries = 0;
  uint64_t supersteps_replayed = 0;
  for (const BenchmarkResult& r : results) {
    if (!r.status.ok()) ++failed_cells;
    if (r.attempts > 1) ++retried_cells;
    if (r.timed_out) ++timed_out_cells;
    if (r.cancelled) ++cancelled_cells;
    if (r.stalled) ++stalled_cells;
    total_attempts += r.attempts;
    injected_faults += r.injected_faults;
    if (r.resumed) ++resumed_cells;
    recoveries += r.recoveries;
    supersteps_replayed += r.supersteps_replayed;
  }
  out << "-- robustness --\n";
  out << StringPrintf(
      "cells: %zu  failed: %llu  retried: %llu  timed out: %llu  "
      "attempts: %llu  injected faults: %llu\n",
      results.size(), (unsigned long long)failed_cells,
      (unsigned long long)retried_cells, (unsigned long long)timed_out_cells,
      (unsigned long long)total_attempts, (unsigned long long)injected_faults);
  out << StringPrintf(
      "cancelled: %llu  (stall watchdog: %llu)  "
      "resumed from journal: %llu  recovered from checkpoint: %llu  "
      "supersteps replayed: %llu\n\n",
      (unsigned long long)cancelled_cells, (unsigned long long)stalled_cells,
      (unsigned long long)resumed_cells, (unsigned long long)recoveries,
      (unsigned long long)supersteps_replayed);

  out << "-- details --\n";
  for (const BenchmarkResult& r : results) {
    out << StringPrintf("%s / %s / %s\n", r.platform.c_str(), r.graph.c_str(),
                        AlgorithmKindName(r.algorithm).c_str());
    out << "  status:      " << r.status.ToString() << '\n';
    if (r.attempts > 1 || r.timed_out || r.injected_faults > 0) {
      out << StringPrintf("  attempts:    %u%s\n", r.attempts,
                          r.timed_out ? "  (timed out)" : "");
      if (r.injected_faults > 0) {
        out << StringPrintf("  faults:      %llu injected\n",
                            (unsigned long long)r.injected_faults);
      }
    }
    if (r.cancelled) {
      out << StringPrintf("  cancelled:   %s  (joined in %.3fs)\n",
                          r.cancel_reason.c_str(), r.cancel_join_seconds);
    }
    if (r.resumed) out << "  resumed:     from journal (not re-executed)\n";
    if (r.recoveries > 0) {
      out << StringPrintf("  recoveries:  %llu  (supersteps replayed: %llu)\n",
                          (unsigned long long)r.recoveries,
                          (unsigned long long)r.supersteps_replayed);
    }
    if (r.status.ok()) {
      out << "  runtime:     " << FormatSeconds(r.runtime_seconds) << '\n';
      out << "  load (ETL):  " << FormatSeconds(r.load_seconds) << '\n';
      out << StringPrintf("  teps:        %.0f\n", r.teps);
      out << "  validation:  " << r.validation.ToString() << '\n';
      if (r.resources.samples > 0) {
        out << "  peak rss:    " << FormatBytes(r.resources.peak_rss_bytes)
            << StringPrintf("  (cpu util %.0f%%)\n",
                            r.resources.cpu_utilization * 100.0);
      }
      if (r.trace_spans > 0) {
        out << StringPrintf("  trace:       %llu spans",
                            (unsigned long long)r.trace_spans);
        if (!r.top_phases.empty()) out << "  top: " << r.top_phases;
        out << '\n';
      }
      if (r.critical_path_seconds > 0) {
        out << "  crit path:   " << FormatSeconds(r.critical_path_seconds)
            << '\n';
      }
      for (const auto& [k, v] : r.platform_metrics) {
        out << "  " << StringPrintf("%-12s %s\n", (k + ":").c_str(),
                                    v.c_str());
      }
    }
  }
  return out.str();
}

Status WriteResultsCsv(const std::vector<BenchmarkResult>& results,
                       const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open " + path);
  CsvWriter csv(&file);
  csv.WriteHeader({"platform", "graph", "algorithm", "status",
                   "status_detail", "validation", "runtime_s", "load_s",
                   "traversed_edges", "teps", "output_checksum",
                   "attempts", "timed_out", "cancelled", "stalled",
                   "cancel_reason", "cancel_join_s", "injected_faults",
                   "resumed", "recoveries", "supersteps_replayed",
                   "peak_rss_bytes", "cpu_utilization", "trace_spans",
                   "top_phases", "critical_path_s"});
  for (const BenchmarkResult& r : results) {
    // status_detail (and cancel_reason / top_phases below) carry free-form
    // engine text — commas, quotes, newlines — which CsvWriter::Field
    // escapes per RFC 4180; see the round-trip test in common_test.
    csv.Field(r.platform)
        .Field(r.graph)
        .Field(AlgorithmKindName(r.algorithm))
        .Field(std::string(StatusCodeToString(r.status.code())))
        .Field(r.status.message())
        .Field(std::string(StatusCodeToString(r.validation.code())))
        .Field(r.runtime_seconds)
        .Field(r.load_seconds)
        .Field(r.traversed_edges)
        .Field(r.teps)
        .Field(static_cast<uint64_t>(r.output_checksum))
        .Field(static_cast<uint64_t>(r.attempts))
        .Field(static_cast<uint64_t>(r.timed_out ? 1 : 0))
        .Field(static_cast<uint64_t>(r.cancelled ? 1 : 0))
        .Field(static_cast<uint64_t>(r.stalled ? 1 : 0))
        .Field(r.cancel_reason)
        .Field(r.cancel_join_seconds)
        .Field(r.injected_faults)
        .Field(static_cast<uint64_t>(r.resumed ? 1 : 0))
        .Field(r.recoveries)
        .Field(r.supersteps_replayed)
        .Field(r.resources.peak_rss_bytes)
        .Field(r.resources.cpu_utilization)
        .Field(r.trace_spans)
        .Field(r.top_phases)
        .Field(r.critical_path_seconds);
    csv.EndRow();
  }
  file.flush();
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string ResultToJson(const BenchmarkResult& result) {
  std::ostringstream out;
  out << '{'
      << "\"platform\":\"" << JsonEscape(result.platform) << "\","
      << "\"graph\":\"" << JsonEscape(result.graph) << "\","
      << "\"algorithm\":\"" << AlgorithmKindName(result.algorithm) << "\","
      << "\"status\":\"" << StatusCodeToString(result.status.code()) << "\","
      << "\"validation\":\"" << StatusCodeToString(result.validation.code())
      << "\","
      << StringPrintf("\"runtime_s\":%.6f,", result.runtime_seconds)
      << StringPrintf("\"load_s\":%.6f,", result.load_seconds)
      << "\"traversed_edges\":" << result.traversed_edges << ','
      << StringPrintf("\"teps\":%.1f,", result.teps)
      << "\"output_checksum\":" << result.output_checksum << ','
      << "\"attempts\":" << result.attempts << ','
      << "\"timed_out\":" << (result.timed_out ? "true" : "false") << ','
      << "\"cancelled\":" << (result.cancelled ? "true" : "false") << ','
      << "\"stalled\":" << (result.stalled ? "true" : "false") << ','
      << "\"cancel_reason\":\"" << JsonEscape(result.cancel_reason)
      << "\","
      << StringPrintf("\"cancel_join_s\":%.6f,",
                      result.cancel_join_seconds)
      << "\"injected_faults\":" << result.injected_faults << ','
      << "\"resumed\":" << (result.resumed ? "true" : "false") << ','
      << "\"recoveries\":" << result.recoveries << ','
      << "\"supersteps_replayed\":" << result.supersteps_replayed << ','
      << "\"peak_rss_bytes\":" << result.resources.peak_rss_bytes << ','
      << "\"trace_spans\":" << result.trace_spans << ','
      << "\"top_phases\":\"" << JsonEscape(result.top_phases) << "\","
      << StringPrintf("\"critical_path_s\":%.6f,",
                      result.critical_path_seconds)
      << "\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : result.platform_metrics) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(k) << "\":\"" << JsonEscape(v) << '"';
  }
  out << "}}";
  return out.str();
}

Result<BenchmarkResult> ResultFromJson(const std::string& line) {
  // Restrict top-level field searches to the text before the metrics
  // object, whose (string) values could otherwise shadow top-level keys.
  size_t metrics_pos = line.find("\"metrics\":{");
  std::string_view head(line.data(), metrics_pos == std::string::npos
                                         ? line.size()
                                         : metrics_pos);
  BenchmarkResult r;
  std::string algorithm;
  std::string status_name;
  std::string validation_name;
  if (!ExtractJsonString(head, "platform", &r.platform) ||
      !ExtractJsonString(head, "graph", &r.graph) ||
      !ExtractJsonString(head, "algorithm", &algorithm) ||
      !ExtractJsonString(head, "status", &status_name) ||
      !ExtractJsonString(head, "validation", &validation_name)) {
    return Status::InvalidArgument("malformed result record: " + line);
  }
  GLY_ASSIGN_OR_RETURN(r.algorithm, ParseAlgorithmKind(algorithm));
  StatusCode code;
  if (!StatusCodeFromString(status_name, &code)) {
    return Status::InvalidArgument("unknown status code: " + status_name);
  }
  r.status = code == StatusCode::kOk ? Status::OK()
                                     : Status(code, "from journal");
  if (!StatusCodeFromString(validation_name, &code)) {
    return Status::InvalidArgument("unknown status code: " + validation_name);
  }
  r.validation = code == StatusCode::kOk ? Status::OK()
                                         : Status(code, "from journal");

  // Numeric and boolean fields are optional — journals written before the
  // checksum, cancellation, recovery or tracing fields existed must still
  // parse for resume — but a present field must parse exactly.
  GLY_RETURN_NOT_OK(ExtractJsonNumber(head, "runtime_s", &r.runtime_seconds));
  GLY_RETURN_NOT_OK(ExtractJsonNumber(head, "load_s", &r.load_seconds));
  GLY_RETURN_NOT_OK(
      ExtractJsonUint(head, "traversed_edges", &r.traversed_edges));
  GLY_RETURN_NOT_OK(ExtractJsonNumber(head, "teps", &r.teps));
  GLY_RETURN_NOT_OK(
      ExtractJsonUint(head, "output_checksum", &r.output_checksum));
  GLY_RETURN_NOT_OK(ExtractJsonUint(head, "attempts", &r.attempts));
  GLY_RETURN_NOT_OK(ExtractJsonBool(head, "timed_out", &r.timed_out));
  GLY_RETURN_NOT_OK(ExtractJsonBool(head, "cancelled", &r.cancelled));
  GLY_RETURN_NOT_OK(ExtractJsonBool(head, "stalled", &r.stalled));
  ExtractJsonString(head, "cancel_reason", &r.cancel_reason);
  GLY_RETURN_NOT_OK(
      ExtractJsonNumber(head, "cancel_join_s", &r.cancel_join_seconds));
  GLY_RETURN_NOT_OK(
      ExtractJsonUint(head, "injected_faults", &r.injected_faults));
  GLY_RETURN_NOT_OK(ExtractJsonBool(head, "resumed", &r.resumed));
  GLY_RETURN_NOT_OK(ExtractJsonUint(head, "recoveries", &r.recoveries));
  GLY_RETURN_NOT_OK(
      ExtractJsonUint(head, "supersteps_replayed", &r.supersteps_replayed));
  GLY_RETURN_NOT_OK(ExtractJsonUint(head, "peak_rss_bytes",
                                    &r.resources.peak_rss_bytes));
  GLY_RETURN_NOT_OK(ExtractJsonUint(head, "trace_spans", &r.trace_spans));
  ExtractJsonString(head, "top_phases", &r.top_phases);
  GLY_RETURN_NOT_OK(ExtractJsonNumber(head, "critical_path_s",
                                      &r.critical_path_seconds));

  if (metrics_pos != std::string::npos) {
    size_t pos = metrics_pos + std::string_view("\"metrics\":{").size();
    while (pos < line.size() && line[pos] != '}') {
      if (line[pos] == ',') {
        ++pos;
        continue;
      }
      std::string key;
      pos = ScanJsonString(line, pos, &key);
      if (pos == std::string::npos || pos >= line.size() ||
          line[pos] != ':') {
        return Status::InvalidArgument("malformed metrics: " + line);
      }
      std::string metric_value;
      pos = ScanJsonString(line, pos + 1, &metric_value);
      if (pos == std::string::npos) {
        return Status::InvalidArgument("malformed metrics: " + line);
      }
      r.platform_metrics[key] = metric_value;
    }
  }
  return r;
}

Status AppendResultsDatabase(const std::vector<BenchmarkResult>& results,
                             const Config& configuration,
                             const std::string& path) {
  std::ofstream file(path, std::ios::app);
  if (!file) return Status::IOError("cannot open " + path);
  for (const BenchmarkResult& r : results) {
    file << ResultToJson(r) << '\n';
  }
  (void)configuration;
  file.flush();
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace gly::harness
