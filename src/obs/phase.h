// Hierarchical phase-time attribution: low-overhead accumulating timers
// that answer "where did the wall-clock of this run go?".
//
//   void HeroTrainer::train(...) {
//     OBS_PHASE("stage2");
//     ...
//     { OBS_PHASE("rollout"); batched_->run_round(...); }
//     { OBS_PHASE("learn");   merge_and_update(...);    }
//   }
//
// Unlike OBS_SPAN (which records one trace event per entry and feeds a
// latency histogram), OBS_PHASE only *accumulates*: each distinct nesting
// path keeps one counter (entries) and one total-duration cell, so a
// million entries cost a million clock-read pairs but O(paths) memory.
// The result is a phase tree — "stage2 spent 91% of its time under
// rollout, of which 40% was sim_step and 35% nn_forward" — exported in the
// metrics snapshot under "phases" and rendered by tools/hero_monitor.
//
// Threading model: every thread owns a private tree (registered with the
// global PhaseRegistry on first use and kept alive for the process
// lifetime). A scope's node is found/created under the owner thread's tree
// mutex only on first sighting of that (parent, name) edge; afterwards
// entering a phase is: one relaxed enabled-load, one child lookup by
// pointer identity, two clock reads and two relaxed atomic adds.
// PhaseRegistry::snapshot() merges all per-thread trees by name, so phases
// recorded on pool workers (docs/PARALLELISM.md) fold into one tree —
// worker-side phases appear as top-level entries of the merged tree because
// each worker's stack starts at its own root.
//
// When phases are disabled (the default — obs::configure enables them with
// --metrics-out), constructing a scope is a single relaxed atomic-bool
// load: no clock read, no allocation, no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace hero::obs {

namespace detail {
extern std::atomic<bool> g_phases_enabled;

struct PhaseNode {
  const char* name = nullptr;  // string literal from the OBS_PHASE site
  PhaseNode* parent = nullptr;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  // Guarded by the *owning tree's* mu — not expressible as HERO_GUARDED_BY
  // because the node has no back-pointer to its tree, so the thread-safety
  // analysis cannot check accesses and the invariant lives here instead:
  // only the owner thread appends (under the tree mutex, so snapshot
  // readers on other threads are safe), and the owner's deliberately
  // lock-free lookups in phase_enter cannot race its own appends.
  std::vector<std::unique_ptr<PhaseNode>> children;
};

struct PhaseThreadTree {
  PhaseNode root;           // unnamed sentinel; top-level phases hang off it
  PhaseNode* current = &root;  // owner-thread-only: its position in the tree
  Mutex mu;                 // guards children mutation vs snapshot readers
};

// Enters phase `name` under the calling thread's current node and returns
// the node; phase_exit() accumulates the duration and pops the stack.
PhaseNode* phase_enter(const char* name);
void phase_exit(PhaseNode* node, std::uint64_t dur_ns);
std::uint64_t phase_now_ns();
}  // namespace detail

inline bool phases_enabled() {
  return detail::g_phases_enabled.load(std::memory_order_relaxed);
}
void set_phases_enabled(bool on);

// One node of the merged (cross-thread) phase tree.
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  std::vector<PhaseStat> children;  // sorted by name
};

class PhaseRegistry {
 public:
  static PhaseRegistry& instance();

  // Merged view of every thread's tree, children sorted by name. Phases
  // recorded on different threads under the same path fold together.
  std::vector<PhaseStat> snapshot() const HERO_EXCLUDES(mu_);

  // {"stage2": {"count": 1, "total_us": 123.4, "children": {...}}, ...}
  std::string json() const HERO_EXCLUDES(mu_);

  // Zeroes all counters and totals; keeps registered structure. In-flight
  // scopes still accumulate into their (now zeroed) nodes on exit.
  void reset() HERO_EXCLUDES(mu_);

  // Internal: called once per thread on first OBS_PHASE entry.
  void register_tree(std::shared_ptr<detail::PhaseThreadTree> tree)
      HERO_EXCLUDES(mu_);

 private:
  PhaseRegistry() = default;

  mutable Mutex mu_;
  std::vector<std::shared_ptr<detail::PhaseThreadTree>> trees_
      HERO_GUARDED_BY(mu_);
};

class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name) {
    if (phases_enabled()) {
      node_ = detail::phase_enter(name);
      start_ns_ = detail::phase_now_ns();
    }
  }
  ~ScopedPhase() {
    if (node_) detail::phase_exit(node_, detail::phase_now_ns() - start_ns_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  detail::PhaseNode* node_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace hero::obs

#ifndef HERO_OBS_CONCAT
#define HERO_OBS_CONCAT2(a, b) a##b
#define HERO_OBS_CONCAT(a, b) HERO_OBS_CONCAT2(a, b)
#endif
#define OBS_PHASE(name) \
  ::hero::obs::ScopedPhase HERO_OBS_CONCAT(hero_obs_phase_, __COUNTER__)(name)
