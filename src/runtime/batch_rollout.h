// BatchRoundScheduler: round scheduling over environment batches
// (docs/BATCHING.md).
//
// A round maps episodes [first, first + count) onto `count` lanes of a
// vectorized environment (lane i ↔ episode first + i). Lane i draws every
// per-episode random value from the counter-based stream
// stream_rng(root_seed, first + i), so a batched run is bitwise
// reproducible for a fixed (seed, batch width), and collected episodes come
// out in canonical episode order by construction (lane order IS episode
// order; no merge step needed).
//
// Lanes finish independently (episodes end at different steps); finish()
// retires a lane and the active mask feeds straight into the batched draw
// APIs (BatchLaneWorld::step_all, SquashedGaussianPolicy::act_rows_into).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "runtime/rng_stream.h"

namespace hero::runtime {

class BatchRoundScheduler {
 public:
  explicit BatchRoundScheduler(std::size_t num_lanes)
      : lanes_(num_lanes),
        rngs_(num_lanes, Rng(0)),
        rng_ptrs_(num_lanes, nullptr),
        active_(num_lanes, 0) {
    for (std::size_t i = 0; i < num_lanes; ++i) rng_ptrs_[i] = &rngs_[i];
  }

  std::size_t num_lanes() const { return lanes_; }
  std::size_t round_size() const { return round_; }
  std::size_t episode(std::size_t lane) const { return first_ + lane; }

  // Starts a round over episodes [first, first + count); count ≤ num_lanes.
  // `root_seed` is the training run's root draw (one per train() call), so
  // repeated rounds of one run stay on disjoint episode streams.
  void begin_round(std::uint64_t root_seed, std::size_t first, std::size_t count) {
    HERO_CHECK(count <= lanes_);
    first_ = first;
    round_ = count;
    live_ = count;
    for (std::size_t i = 0; i < lanes_; ++i) {
      active_[i] = i < count ? 1 : 0;
      if (i < count) rngs_[i] = stream_rng(root_seed, first + i);
    }
  }

  bool active(std::size_t lane) const { return active_[lane] != 0; }
  const std::uint8_t* active_mask() const { return active_.data(); }
  std::size_t live() const { return live_; }

  void finish(std::size_t lane) {
    if (active_[lane] != 0) {
      active_[lane] = 0;
      --live_;
    }
  }

  Rng& rng(std::size_t lane) { return rngs_[lane]; }
  // Per-lane stream pointers in lane order for the batched draw APIs.
  Rng* const* rng_ptrs() const { return rng_ptrs_.data(); }

 private:
  std::size_t lanes_;
  std::size_t first_ = 0;
  std::size_t round_ = 0;
  std::size_t live_ = 0;
  std::vector<Rng> rngs_;
  std::vector<Rng*> rng_ptrs_;
  std::vector<std::uint8_t> active_;
};

}  // namespace hero::runtime
