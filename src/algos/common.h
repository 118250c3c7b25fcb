// Shared plumbing for the end-to-end MARL baselines (Sec. V-A of the paper):
// the common observation each baseline consumes, the shared hyper-parameter
// block (paper Table I), and the per-episode training hook used by the
// learning-curve benches.
#pragma once

#include <functional>
#include <vector>

#include "rl/evaluation.h"
#include "sim/batch_lane_world.h"
#include "sim/scenario.h"

namespace hero::algos {

// Hyper-parameters shared by all trainers. Defaults follow paper Table I
// where it is specific (γ, τ, buffer, hidden width); learning rate and batch
// are tuned down for single-core wall-clock (Table I's lr 0.01 / batch 1024
// remain reachable via config).
struct TrainConfig {
  double gamma = 0.95;
  double lr = 0.002;
  double tau = 0.01;            // soft target-update rate
  std::size_t buffer_capacity = 100000;
  std::size_t batch = 128;
  std::size_t warmup_steps = 500;  // env steps before learning starts
  int update_every = 2;            // env steps between gradient updates
  double grad_clip = 10.0;
  std::vector<std::size_t> hidden = {32, 32};  // paper: hidden width 32

  // ε-greedy schedule (value-based methods). The decay horizon is sized for
  // the single-core episode budgets used in the benches (~1-2k episodes of
  // ~10-30 steps); the paper's 14k-episode runs would use a longer horizon.
  double eps_start = 1.0;
  double eps_end = 0.05;
  long eps_decay_steps = 8000;

  // Gaussian exploration noise (deterministic-policy methods).
  double act_noise = 0.1;

};

// Per-episode callback: (episode index, training-episode stats).
using EpisodeHook = std::function<void(int, const rl::EpisodeStats&)>;

// Emits the per-episode observability record shared by the end-to-end
// baseline trainers: a "baseline/episode" telemetry line plus
// <method>.{episodes,steps,collisions,successes,episode_reward} metrics.
// No-op while both metrics and telemetry are disabled.
void record_episode(const char* method, int episode, const rl::EpisodeStats& stats);

// The local observation every end-to-end baseline receives: the high-level
// sensor state (lidar, speed, lane id) concatenated with the lane-camera
// features — i.e. the union of what HERO's two layers see, so no method has
// an information advantage.
std::vector<double> baseline_obs(const sim::LaneWorld& world, int vehicle);
std::size_t baseline_obs_dim(const sim::LaneWorld& world);

// Batched analogue: writes the same concatenated observation for vehicle of
// env `e` straight out of the SoA world's zero-alloc observation cores —
// the shared hook every baseline's batch_envs path collects through.
void baseline_obs_into(const sim::BatchLaneWorld& world, int e, int vehicle,
                       double* out);

// Deployment-batch analogue: row r of `out` becomes agent `k`'s baseline
// observation [hl | ll(current lane)] for slot slots[r] of the batch — the
// row gather behind every baseline's act_rows_into override. `out` is
// resized in place (slots.size() × baseline obs dim).
void gather_baseline_rows(const rl::ObsBatch& batch, int agent,
                          const std::vector<std::size_t>& slots, nn::Matrix& out);

// Primitive action bounds shared by the continuous-control baselines
// (the envelope of the paper's per-skill ranges).
std::vector<double> primitive_lo();
std::vector<double> primitive_hi();

}  // namespace hero::algos
