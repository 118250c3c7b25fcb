// hero_bench — the measuring half of the end-to-end benchmark
// (herobench/README.md). run.py builds it, picks the workload sizes and
// aggregates what it prints; this binary does the timed work.
//
//   hero_bench train --out result.json --ckpt dir/ --seed N --seconds S
//                    [--skill-episodes K] [--episodes E] [--batch-envs B]
//                    [--scenario cfg.json --scenario-vehicles V]
//                    [--hl-warmup W] [--hl-batch M] [--opp-min-samples S]
//                    [--eval-seed N] [--min-reps R]
//
//   hero_bench serve --out result.json --serve-bin path/hero_serve
//                    --ckpt dir/ --plan plan.txt --workdir dir/ [--seed N]
//                    [--trace 1]
//
// Both modes write one JSON document to --out and exit 0, or 1 on an error;
// run.py checks the document.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace herobench {

namespace {

double read_status_kb(const std::string& path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  }
  return 0.0;
}

}  // namespace

double self_peak_rss_mb() {
  return read_status_kb("/proc/self/status", "VmHWM") / 1024.0;
}

double pid_peak_rss_mb(long pid) {
  return read_status_kb("/proc/" + std::to_string(pid) + "/status", "VmHWM") /
         1024.0;
}

std::string build_manifest_json() {
  JsonObject m;
  m.integer("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .str("build_type", HERO_BENCH_BUILD_TYPE)
      .str("cxx_flags", HERO_BENCH_CXX_FLAGS)
      .str("compiler", HERO_BENCH_COMPILER)
      .boolean("hero_native", HERO_BENCH_NATIVE != 0)
      .boolean("hero_debug_checks", HERO_BENCH_DEBUG_CHECKS != 0);
  return m.dump();
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  ::sched_getaffinity(0, sizeof(set), &set);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_to_cpus(long pid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(static_cast<pid_t>(pid), sizeof(set), &set);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace herobench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: hero_bench train|serve [flags]\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    hero::Flags flags(argc - 1, argv + 1);
    if (mode == "train") return herobench::run_train(flags);
    if (mode == "serve") return herobench::run_serve(flags);
    std::fprintf(stderr, "hero_bench: unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hero_bench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
}
