#include "telemetry/query_profile.h"

#include <cstdio>
#include <fstream>

#include "telemetry/trace_export.h"

namespace gradoop::telemetry {

namespace {

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  out += JsonEscape(text);
  out += '"';
  return out;
}

std::string U64(uint64_t value) { return std::to_string(value); }

// Seconds serialize with microsecond resolution; %.3f on seconds would
// round sub-millisecond phases to zero.
std::string Seconds(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

}  // namespace

double QError(double estimated, double actual) {
  // Clamping both sides to >= 1 makes the metric zero-safe: row counts
  // are integers, so a sub-one "cardinality" carries no information and
  // 0-vs-0 must read as a perfect estimate, not 0/0.
  const double est = estimated < 1.0 ? 1.0 : estimated;
  const double act = actual < 1.0 ? 1.0 : actual;
  return est > act ? est / act : act / est;
}

double QueryProfile::WorkerImbalanceRatio() const {
  return WorkerImbalance(workers);
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"name\": " + Quoted(name) + ",\n";
  out += "  \"query\": " + Quoted(query) + ",\n";
  out += "  \"engine\": " + Quoted(engine) + ",\n";
  out += "  \"max_qerror\": " + JsonNumber(max_qerror) + ",\n";
  out += "  \"matches\": " + U64(matches) + ",\n";
  out += "  \"total_wall_sec\": " + Seconds(total_wall_sec) + ",\n";
  out += "  \"simulated_sec\": " + Seconds(simulated_sec) + ",\n";
  out += "  \"network_bytes\": " + U64(network_bytes) + ",\n";
  out += "  \"spilled_bytes\": " + U64(spilled_bytes) + ",\n";
  out += "  \"records\": " + U64(records) + ",\n";
  out += "  \"num_workers\": " + std::to_string(num_workers) + ",\n";
  out += "  \"worker_imbalance\": " + JsonNumber(WorkerImbalanceRatio()) +
         ",\n";

  out += "  \"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + Quoted(phases[i].name) +
           ", \"wall_sec\": " + Seconds(phases[i].wall_sec) + "}";
  }
  out += "\n  ],\n";

  out += "  \"operators\": [";
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorProfile& op = operators[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + Quoted(op.name) +
           ", \"describe\": " + Quoted(op.describe) +
           ", \"depth\": " + std::to_string(op.depth) +
           ", \"estimated_rows\": " + JsonNumber(op.estimated_rows) +
           ", \"actual_rows\": " + U64(op.actual_rows) +
           ", \"qerror\": " + JsonNumber(op.qerror) +
           ", \"selectivity\": " + JsonNumber(op.selectivity) +
           ", \"actual_peak_bytes\": " + U64(op.actual_peak_bytes) +
           ", \"claimed_peak_bytes\": " + U64(op.claimed_peak_bytes) +
           ", \"self_wall_sec\": " + Seconds(op.self_wall_sec) +
           ", \"total_wall_sec\": " + Seconds(op.total_wall_sec) +
           ", \"network_bytes\": " + U64(op.network_bytes) +
           ", \"spilled_bytes\": " + U64(op.spilled_bytes) +
           ", \"output_bytes\": " + U64(op.output_bytes) +
           ", \"property_bytes\": " + U64(op.property_bytes) + "}";
  }
  out += "\n  ],\n";

  out += "  \"workers\": [";
  for (size_t i = 0; i < workers.size(); ++i) {
    const WorkerBusy& w = workers[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"worker\": " + std::to_string(w.worker) +
           ", \"busy_sec\": " + Seconds(w.busy_sec) +
           ", \"tasks\": " + U64(w.tasks) + "}";
  }
  out += "\n  ],\n";

  out += "  \"counters\": {";
  {
    bool first = true;
    for (const auto& [key, value] : metrics.counters) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    " + Quoted(key) + ": " + U64(value);
    }
  }
  out += "\n  },\n";

  out += "  \"histograms\": {";
  {
    bool first = true;
    for (const auto& [key, h] : metrics.histograms) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    " + Quoted(key) + ": {\"count\": " + U64(h.count) +
             ", \"sum\": " + JsonNumber(h.sum) +
             ", \"min\": " + JsonNumber(h.min) +
             ", \"max\": " + JsonNumber(h.max) + ", \"bounds\": [";
      for (size_t i = 0; i < h.bounds.size(); ++i) {
        if (i > 0) out += ", ";
        out += JsonNumber(h.bounds[i]);
      }
      out += "], \"bucket_counts\": [";
      for (size_t i = 0; i < h.counts.size(); ++i) {
        if (i > 0) out += ", ";
        out += U64(h.counts[i]);
      }
      out += "]}";
    }
  }
  out += "\n  }\n";
  out += "}\n";
  return out;
}

bool WriteQueryProfile(const std::string& path, const QueryProfile& profile,
                       std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot write '" + path + "'";
    return false;
  }
  out << profile.ToJson();
  out.close();
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace gradoop::telemetry
