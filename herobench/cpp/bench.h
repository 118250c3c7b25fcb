// Shared helpers of hero_bench: a minimal JSON object writer,
// the monotonic clock, process memory readings, CPU pinning and the build
// manifest.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"

namespace herobench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Appends `"key": value` pairs to one flat-or-nested JSON object. Values are
// written with full precision; non-finite numbers become null so a bad value
// surfaces as a failed check in run.py instead of as unparsable output.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      q += c;
    }
    q += '"';
    return raw(key, q);
  }
  // Arrays of measurements; `fmt` trims digits where the full precision
  // would only bloat the output (microsecond latencies).
  JsonObject& nums(const std::string& key, const std::vector<double>& vs,
                   const char* fmt = "%.17g") {
    std::string a = "[";
    char buf[64];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof(buf), fmt, std::isfinite(vs[i]) ? vs[i] : 0.0);
      if (i) a += ',';
      a += buf;
    }
    a += ']';
    return raw(key, a);
  }
  // `json` must already be valid JSON (an object, array or scalar).
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string dump() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

// Peak resident set of this process (VmHWM), in MB.
double self_peak_rss_mb();
// Peak resident set of process `pid` (VmHWM), in MB; 0 if unreadable.
double pid_peak_rss_mb(long pid);

// CPUs this process may run on, and pinning of process `pid` (0 = self) to
// one or several of them. Used to spread timed work over every CPU of a
// shared host.
std::vector<int> allowed_cpus();
void pin_to_cpus(long pid, const std::vector<int>& cpus);
inline void pin_to_cpu(long pid, int cpu) { pin_to_cpus(pid, {cpu}); }

// Build facts stamped into every result: nproc, build type, HERO_NATIVE,
// HERO_DEBUG_CHECKS, compiler, flags.
std::string build_manifest_json();

// Writes `text` to `path` (truncating); throws std::runtime_error on failure.
void write_file(const std::string& path, const std::string& text);

int run_train(hero::Flags& flags);
int run_serve(hero::Flags& flags);

}  // namespace herobench
