#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench.hpp"
#include "obs/memory.hpp"

namespace perfbench {

namespace {
Clock::time_point g_start = Clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::check(const std::string& error) {
  if (error.empty()) return;
  correct = false;
  if (errors.size() < 20) errors.push_back(error);
}

std::string Report::to_json(const Args& args) const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) s += ", ";
    s += "\"" + json_escape(m.name) + "\": {\"value\": " + number(m.value) +
         ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  s += "}";
  if (args.trace) {
    s += ", \"trace\": {\"file\": \"" + json_escape(args.trace_out) +
         "\", \"units\": " + std::to_string(trace_units) +
         ", \"window_span\": \"" + json_escape(window_span) + "\"" +
         ", \"round_span\": \"" + json_escape(round_span) +
         "\", \"stage_a_span\": \"" + json_escape(stage_a_span) + "\"}";
  }
  s += "}";
  return s;
}

void mark_start() { g_start = Clock::now(); }

double seconds_since_start() { return seconds_between(g_start, Clock::now()); }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double interquartile_mean(std::vector<double> v) {
  if (v.size() < 4) return mean(v);
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  return mean(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(cut),
                                  v.end() - static_cast<std::ptrdiff_t>(cut)));
}

ProcIo read_proc_io() {
  ProcIo io;
  std::FILE* f = std::fopen("/proc/thread-self/io", "r");
  if (!f) return io;
  char key[64];
  std::uint64_t value = 0;
  while (std::fscanf(f, "%63[^:]: %" SCNu64 "\n", key, &value) == 2) {
    if (std::strcmp(key, "rchar") == 0) io.rchar = value;
    if (std::strcmp(key, "wchar") == 0) io.wchar = value;
  }
  std::fclose(f);
  return io;
}

std::uint64_t vm_rss_bytes() {
  return lpt::obs::read_proc_status().vm_rss_bytes;
}

std::uint64_t vm_hwm_bytes() {
  return lpt::obs::read_proc_status().vm_hwm_bytes;
}

}  // namespace perfbench
