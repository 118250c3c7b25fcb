// HERO end-to-end: two-stage training (paper Fig. 2) and deployment.
//
//   Stage 1 — train_skills(): each low-level skill learns in a single-vehicle
//   world against its intrinsic reward (Algorithm 2).
//   Stage 2 — train(): multiple vehicles learn the high-level cooperative
//   option-selection policy with opponent modeling, skills frozen
//   (Algorithm 1).
//
// HeroTrainer is also an rl::Controller, so the shared evaluation harness
// (and the Table II domain-shifted world) can run it like any baseline.
#pragma once

#include <map>
#include <memory>

#include "algos/common.h"
#include "common/stats.h"
#include "hero/act_engine.h"
#include "hero/batched_rollout.h"
#include "hero/hero_agent.h"
#include "runtime/thread_pool.h"

namespace hero::core {

struct HeroConfig {
  SkillConfig skill;
  HighLevelConfig high;
  OpponentModelConfig opponent;
  int update_every = 2;        // batch steps between gradient-update rounds
  int skill_episodes = 1200;   // default stage-1 budget per skill
  // Size of the stage-1 skill thread pool: > 1 trains the learned skills as
  // one pool task each (paper Sec. V-C). Deterministic per skill, but the
  // skills differ from the sequential (1) path's — stage-1 results change
  // with this knob (docs/PARALLELISM.md). Stage 2 never reads it.
  int num_workers = 1;
  // Stage-2 episodes stepped in lockstep through one vectorized
  // BatchLaneWorld on a single thread, with every per-step network
  // evaluation batched across lanes and gradient updates clocked per
  // *batch* step (docs/BATCHING.md). Must be >= 1. Stage 2 is a pure
  // function of (seed, batch_envs).
  int batch_envs = 1;
};

class HeroTrainer : public rl::Controller {
 public:
  HeroTrainer(const sim::Scenario& scenario, const HeroConfig& cfg, Rng& rng);

  // --- stage 1 ---
  using SkillHook = std::function<void(Option, int, double)>;
  // Trains every learned skill; returns the per-episode intrinsic reward
  // curves (Fig. 8).
  std::map<Option, std::vector<double>> train_skills(int episodes_per_skill,
                                                     Rng& rng,
                                                     const SkillHook& hook = {});

  // --- stage 2 ---
  // Runs `episodes` episodes in rounds of batch_envs lockstep episodes
  // through BatchedRollout, merges each round's experience in episode order,
  // then takes the round's gradient-update rounds. `hook` fires once per
  // episode in episode order, after the round's updates.
  void train(int episodes, Rng& rng, const algos::EpisodeHook& hook = {});

  // --- rl::Controller (deployment / evaluation) ---
  void begin_episode(const sim::LaneWorld& world) override;
  // The scalar decision, one vehicle and one network row at a time: the
  // rl::evaluate path, and the greedy oracle that HeroActEngine — the pass
  // behind act_rows_into, serving and stage-2 training — is tested against.
  std::vector<sim::TwistCmd> act(const sim::LaneWorld& world, Rng& rng,
                                 bool explore) override;
  // Batch-first deployment: one fused HeroActEngine pass over all active
  // slots (three batched network stages total instead of 3·B·n single-row
  // forwards). Slot s's semi-MDP state lives in an internal per-slot
  // HeroSession keyed by slot index, reset via the batch's reset flags — the
  // Controller contract's "slot index is session identity". Greedy commands
  // are bitwise-identical to the scalar act() path (see test_serve.cpp);
  // explore mode is deterministic too but keys its draw order on the fused
  // schedule, like the batch_envs training path.
  void act_rows_into(const rl::ObsBatch& batch, Rng* const* rngs, bool explore,
                     sim::TwistCmd* cmds_out) override;

  // --- checkpointing ---
  // Persists the full model (skill bank, per-agent high-level actor/critic,
  // opponent predictors) into `dir`, plus the versioned `checkpoint.json`
  // manifest (hero/checkpoint.h); load() restores into an identically
  // configured trainer and throws std::runtime_error when the manifest
  // declares an incompatible format or architecture (manifest-less legacy
  // directories still load). The manifest also records whether each
  // agent's opponent predictors were trusted at save time (past their
  // min-samples threshold, or trained); load() restores exactly that, so a
  // checkpoint saved before the predictors warmed up keeps answering with
  // the uniform prior. Manifests without the record load every predictor as
  // trusted.
  void save(const std::string& dir);
  void load(const std::string& dir);

  SkillBank& skills() { return skills_; }
  HeroAgent& agent(int k) { return *agents_[static_cast<std::size_t>(k)]; }
  // The full agent roster — what HeroActEngine consumers (the policy server)
  // pass per call so a model swap never invalidates engine state.
  std::vector<std::unique_ptr<HeroAgent>>& agents() { return agents_; }
  const HeroConfig& config() const { return cfg_; }
  int num_agents() const { return static_cast<int>(agents_.size()); }
  sim::LaneWorld& world() { return world_; }
  const sim::Scenario& scenario() const { return scenario_; }

 private:
  // act_rows_into body (the _into method must stay allocation-free; the
  // engine and session pool grow here, on first use / batch growth only).
  void batched_act(const rl::ObsBatch& batch, Rng* const* rngs, bool explore,
                   sim::TwistCmd* cmds_out);

  // Lazily builds the stage-1 skill pool (>= threads).
  runtime::ThreadPool& ensure_pool(std::size_t threads);
  // Shared telemetry/metrics emission for one finished episode.
  void emit_episode_obs(int episode, const rl::EpisodeStats& stats, long switches,
                        long opp_preds, long opp_hits, double steps_per_sec,
                        const RunningStat& critic_loss,
                        const RunningStat& actor_entropy,
                        const RunningStat& critic_gn, const RunningStat& actor_gn,
                        const RunningStat& opp_loss);

  sim::Scenario scenario_;
  HeroConfig cfg_;
  sim::LaneWorld world_;
  SkillBank skills_;
  std::vector<std::unique_ptr<HeroAgent>> agents_;
  bool episode_started_ = false;
  long total_steps_ = 0;

  std::unique_ptr<runtime::ThreadPool> pool_;  // stage-1 skills (num_workers > 1)
  long pending_update_steps_ = 0;  // carries the batch-steps/update_every remainder

  // The stage-2 rollout engine (built on the first train() call).
  std::unique_ptr<BatchedRollout> batched_;

  // Batch-first deployment engine + per-slot sessions (lazy; see
  // act_rows_into).
  std::unique_ptr<HeroActEngine> act_engine_;
  std::vector<HeroSession> act_sessions_;
  std::vector<HeroSession*> act_session_ptrs_;
};

}  // namespace hero::core
