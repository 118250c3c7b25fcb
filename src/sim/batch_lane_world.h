// BatchLaneWorld: E LaneWorld instances stepped in lockstep, structure-of-
// arrays form (docs/BATCHING.md).
//
// The serial LaneWorld steps one environment and is the semantic reference;
// this class holds the same episode state for E environments in flat
// env-major arrays (x_[e*V + i] is vehicle i of env e) and advances every
// live environment in one pass per phase: command resolution (latency rings
// + actuation perturbation), unicycle integration, collision detection, and
// reward computation. Each phase is a tight loop over flat arrays instead of
// E virtual-dispatch-free but cache-cold single-env steps.
//
// Equivalence contract: stepping env e here with RNG stream R is bitwise
// identical to stepping a serial LaneWorld with the same config, state, and
// stream R — the kinematics run through the shared integrate_unicycle
// inline, observations through the shared LidarSensor/LaneCamera cores, and
// every RNG draw happens in the serial order (learners ascending, then
// per-vehicle episode jitter). tests/test_sim.cpp enforces this at E=1 and
// E=16.
//
// Collision detection uses a sorted arc-length sweep (broad-phase) instead
// of the serial all-pairs loop: vehicles are sorted by wrapped arc length
// and only pairs within 2·reach of each other along the ring (reach =
// hypot(half_len, half_wid), the footprint's circumradius) reach the SAT
// test. Pairs farther apart cannot overlap, so the resulting collision set
// is identical to all-pairs (also enforced by test_sim on randomized
// scenes). With cfg.use_spatial_index (the default) the same per-env sorted
// order lives in a SpatialIndex built once per step and shared with lidar
// box staging and the camera's lead search, shrinking per-ego candidate
// sets from V to the k vehicles inside the sensor window — conservatively,
// so sensing stays bitwise identical (tests/test_spatial_index.cpp).
//
// Thread-safety: like LaneWorld, an instance is confined to one thread at a
// time; observation methods use mutable scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/lane_world.h"

namespace hero::sim {

// Flat per-round step output: env-major arrays sized at construction, no
// per-step allocation after the first use.
struct BatchStepResult {
  std::vector<double> reward;          // E × num_learners
  std::vector<double> travel;          // E × num_vehicles
  std::vector<std::uint8_t> collision; // per env: any collision this step
  std::vector<std::uint8_t> done;      // per env: collision or step limit
};

class BatchLaneWorld {
 public:
  BatchLaneWorld(const LaneWorldConfig& cfg, int envs);

  int envs() const { return E_; }
  int num_vehicles() const { return V_; }
  const std::vector<int>& learners() const { return learners_; }
  int num_learners() const { return static_cast<int>(learners_.size()); }

  // Resets env e exactly like LaneWorld::reset with the same rng: the draw
  // order (per-vehicle start jitter, then optional param jitter) matches.
  void reset_env(int e, Rng& rng);

  // Advances every env with active[e] != 0 by one control period. `cmds` is
  // env-major (cmds[e*num_learners + k] drives learner k of env e) and
  // rngs[e] is env e's stream — each active env consumes exactly the draws
  // its serial twin would. Inactive envs are untouched; their `out` entries
  // are zeroed.
  void step_all(const TwistCmd* cmds, Rng* const* rngs,
                const std::uint8_t* active, BatchStepResult& out);

  // --- observations (zero-alloc; layout identical to LaneWorld) ---
  void high_level_obs_into(int e, int vehicle, double* out,
                           Rng* noise_rng = nullptr) const;
  std::size_t high_level_obs_dim() const {
    return static_cast<std::size_t>(cfg_.lidar.num_beams) + 2;
  }
  void low_level_obs_into(int e, int vehicle, int reference_lane, double* out,
                          Rng* noise_rng = nullptr) const;
  std::size_t low_level_obs_dim() const { return kLaneCameraDim + 2; }

  // --- inspection (mirrors LaneWorld per env) ---
  VehicleState state(int e, int i) const;
  // Tests and skill wrappers overwrite start states through this.
  // Invalidates env e's cached spatial index.
  void set_state(int e, int i, const VehicleState& s);
  int lane(int e, int i) const { return track_.lane_of(y_[flat(e, i)]); }
  int steps(int e) const { return steps_[static_cast<std::size_t>(e)]; }
  bool done(int e) const { return done_[static_cast<std::size_t>(e)] != 0; }
  bool had_collision(int e) const {
    return had_collision_[static_cast<std::size_t>(e)] != 0;
  }
  // Whether vehicle i of env e was in the collision set of the last step —
  // the broad-phase analogue of StepResult::collided.
  bool hit(int e, int i) const { return hit_[flat(e, i)] != 0; }
  double total_travel(int e, int i) const { return total_travel_[flat(e, i)]; }
  double mean_speed(int e, int i) const;
  const Track& track() const { return track_; }
  const LaneWorldConfig& config() const { return cfg_; }

 private:
  std::size_t flat(int e, int i) const {
    return static_cast<std::size_t>(e) * static_cast<std::size_t>(V_) +
           static_cast<std::size_t>(i);
  }

  // Hot-path phases of step_all. Named step_* so lint rule R6
  // (no per-element vector growth in BatchLaneWorld::step* bodies) covers
  // them — the whole step path must stay free of per-step allocation.
  void step_resolve(const TwistCmd* cmds, Rng* const* rngs,
                    const std::uint8_t* active);
  void step_integrate(const std::uint8_t* active, BatchStepResult& out);
  void step_collide(const std::uint8_t* active, BatchStepResult& out);
  void step_rewards(const std::uint8_t* active, BatchStepResult& out);

  // Returns env e's SpatialIndex, rebuilding it from the current SoA state
  // if a reset/set_state/step invalidated it. Requires use_spatial_index.
  const SpatialIndex& ensure_index(int e) const;

  LaneWorldConfig cfg_;
  Track track_;
  LidarSensor lidar_;
  LaneCamera camera_;
  int E_ = 0;
  int V_ = 0;
  std::vector<int> learners_;
  double reach_ = 0.0;  // footprint circumradius, broad-phase threshold / 2

  // SoA episode state, env-major (index flat(e, i)).
  std::vector<double> x_, y_, heading_, speed_, yaw_;
  std::vector<double> total_travel_;
  std::vector<double> speed_gain_, heading_drift_;
  std::vector<int> steps_;                  // per env
  std::vector<std::uint8_t> done_, had_collision_;  // per env

  // Latency rings: fixed-capacity replacement for the serial push/pop-front
  // queues. Capacity = actuation_latency per vehicle; count < capacity means
  // the queue is still filling (hold initial speed, like the serial path).
  int lat_cap_ = 0;
  std::vector<TwistCmd> lat_buf_;  // E × V × lat_cap_
  std::vector<int> lat_head_, lat_count_;  // E × V

  // step scratch (preallocated in the constructor)
  std::vector<TwistCmd> exec_;       // E × V resolved commands
  std::vector<std::uint8_t> hit_;    // E × V collision flags of the last step
  std::vector<int> order_;           // V, per-env arc-length sort (all-pairs path)
  mutable std::vector<Obb> obs_boxes_;  // V, lidar box staging

  // Per-env arc-length index shared by collision broad-phase and sensing;
  // rebuilt eagerly in step_collide and lazily (via ensure_index) when a
  // reset or set_state dirtied the env. Mutable: obs methods are const.
  mutable std::vector<SpatialIndex> indices_;      // E
  mutable std::vector<std::uint8_t> idx_dirty_;    // E
};

}  // namespace hero::sim
