// Counter-based RNG stream splitting: per-episode (batched rollout,
// evaluation) and per-task (stage-1 skills, baseline updates) streams.
//
// Streams must be reproducible for a fixed root seed and statistically
// independent of each other. Deriving child seeds by
// jumping a shared engine would serialize stream creation and couple a
// stream's identity to creation order; instead each stream is addressed by a
// counter: stream k of root seed s is seeded with a splitmix64-style hash of
// (s, k). Any worker can construct its stream without touching shared state,
// and stream k is the same no matter how many workers exist or which thread
// asks for it (docs/PARALLELISM.md).
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace hero::runtime {

// splitmix64 finalizer (Steele et al., "Fast splittable pseudorandom number
// generators") — a bijective avalanche mix, so distinct (seed, stream)
// pairs never collide for a fixed seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Seed for stream `stream` of root seed `root_seed`. Two rounds of mixing
// decorrelate nearby roots and nearby stream ids simultaneously.
inline std::uint64_t stream_seed(std::uint64_t root_seed, std::uint64_t stream) {
  return mix64(root_seed ^ mix64(stream));
}

// Independent generator for (root_seed, stream).
inline Rng stream_rng(std::uint64_t root_seed, std::uint64_t stream) {
  return Rng(stream_seed(root_seed, stream));
}

}  // namespace hero::runtime
