// Machine-readable benchmark output.
//
// Every bench binary emits BENCH_<name>.json next to its stdout tables so
// runs can be diffed across commits without scraping text.  The schema is
// flat on purpose: one object with the bench name, the git revision the
// binary was built from, the pooled worker count, and an array of rows of
// key/value pairs (sizes, wall times, op counts).
#pragma once

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "pram/parallel_for.h"

#ifndef KP_GIT_REV
#define KP_GIT_REV "unknown"
#endif

namespace kp::util {

/// Monotonic wall-clock stopwatch for the benches.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Process CPU-time stopwatch: the time every thread of the process spent
/// on a CPU, pool workers included.
class CpuTimer {
 public:
  CpuTimer() : start_(now_ms()) {}
  double elapsed_ms() const { return now_ms() - start_; }

 private:
  static double now_ms() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
  }
  double start_;
};

/// Median of a sample of timings (the mean of the middle two for an even
/// count, 0 for none).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Collects rows and writes BENCH_<name>.json on write() (or destruction).
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}
  ~BenchReport() {
    if (!written_) write();
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Starts a new row; subsequent put() calls land in it.
  void begin_row(const std::string& label) {
    rows_.emplace_back();
    put("label", label);
  }

  void put(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, quote(value));
  }
  void put(const std::string& key, const char* value) {
    put(key, std::string(value));
  }
  void put(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    rows_.back().emplace_back(key, buf);
  }
  void put(const std::string& key, std::uint64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }
  void put(const std::string& key, int value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }
  void put(const std::string& key, bool value) {
    rows_.back().emplace_back(key, value ? "true" : "false");
  }

  /// Embeds an already-serialized JSON value verbatim (object or array) --
  /// how structured records like util::to_json(Diag) land in a row without
  /// being re-quoted into a string.
  void put_json(const std::string& key, std::string raw_json) {
    rows_.back().emplace_back(key, std::move(raw_json));
  }

  /// Writes BENCH_<name>.json in the current directory.
  void write() {
    written_ = true;
    std::ofstream out("BENCH_" + name_ + ".json");
    out << "{\n";
    out << "  \"bench\": " << quote(name_) << ",\n";
    out << "  \"git_rev\": " << quote(KP_GIT_REV) << ",\n";
    out << "  \"workers\": " << kp::pram::worker_count() << ",\n";
    out << "  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i ? ",\n    {" : "\n    {");
      for (std::size_t k = 0; k < rows_[i].size(); ++k) {
        if (k) out << ", ";
        out << quote(rows_[i][k].first) << ": " << rows_[i][k].second;
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
    return out;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  bool written_ = false;
};

}  // namespace kp::util
