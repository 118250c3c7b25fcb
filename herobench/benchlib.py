"""Pure logic of the end-to-end benchmark, kept free of I/O so the
self-tests in herobench/tests can pin it down: arrival schedules, the tail
percentile rule, the max-rate ladder, the segment-wise median of repeated work,
and the per-layer ledger built from the phase tree the C++ side records.
"""

import math
import random
import statistics

CONNECTIONS = 3


# --- arrival schedules ------------------------------------------------------

def arrival_schedule(seed, phase, rate, duration_s, connections=CONNECTIONS):
    """Open-loop Poisson arrivals for one phase.

    Each connection keeps its own seeded Poisson process at rate/connections,
    so the merged stream is Poisson at `rate`. Returns (due_us, conn) pairs
    sorted by due time. The same (seed, phase, rate, duration) always gives
    the same schedule.
    """
    arrivals = []
    per_conn = rate / connections
    for conn in range(connections):
        rng = random.Random(f"{seed}:{phase}:{conn}")
        t = 0.0
        while True:
            t += rng.expovariate(per_conn)
            if t > duration_s:
                break
            arrivals.append((t * 1e6, conn))
    arrivals.sort()
    return arrivals


# --- percentiles ------------------------------------------------------------

MIN_TAIL_SAMPLES = 10


def tail_percentile(samples, want):
    """The `want`-th percentile, or the highest percentile that still has at
    least MIN_TAIL_SAMPLES samples beyond it when there are too few samples
    for `want`. Returns (percentile_used, value, sample_count).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    limit = 100.0 * (1.0 - MIN_TAIL_SAMPLES / n) if n > MIN_TAIL_SAMPLES else 0.0
    used = min(want, limit)
    ordered = sorted(samples)
    # Nearest rank: the smallest value with at least `used`% of samples at
    # or below it.
    rank = max(1, math.ceil(used / 100.0 * n))
    return used, ordered[rank - 1], n


# --- max-rate ladder ----------------------------------------------------------

# A stable server answers what is outstanding at the end of a rung within a
# batch or two; a saturated one needs time proportional to the rung length.
MAX_DRAIN_S = 0.01


def rung_passes(rung, p99_limit_us):
    """A rung passes when every request was answered, its p99 meets the
    limit and no backlog grew: what was outstanding when the last request
    went out was answered within MAX_DRAIN_S."""
    if rung["failed"] or rung["answered"] != rung["sent"] or not rung["latency_us"]:
        return False
    _, p99, _ = tail_percentile(rung["latency_us"], 99.0)
    return p99 <= p99_limit_us and rung["drain_s"] <= MAX_DRAIN_S


def select_max_rate(rungs, p99_limit_us):
    """Highest offered rate among the passing rungs (0 if none pass). Rungs
    need not pass monotonically: at light rates the micro-batcher's wait can
    break the limit while heavier rates meet it."""
    passing = [r["rate"] for r in rungs if rung_passes(r, p99_limit_us)]
    return max(passing) if passing else 0.0


# --- timing under contention --------------------------------------------------

def median_segments(reps):
    """Sum over segment positions of the median, over repetitions, of the
    time spent there. `reps` are lists of segment durations, one list per
    repetition of the same work in the same order; they must have equal
    lengths. A host stall that hits one repetition's segment moves that
    segment's median little and the sum less (README.md, "Timing on a
    shared host")."""
    lengths = {len(r) for r in reps}
    if len(lengths) != 1:
        raise ValueError("repetitions have different segment counts: %s" % sorted(lengths))
    return sum(statistics.median(column) for column in zip(*reps))


# --- phase tree ledger ---------------------------------------------------------

# Phase name -> owning layer. Names mapped to None inherit the layer of the
# enclosing phase (kernels, replay sampling), so a learner's time includes
# the nn kernels it calls; the nn layer is reported separately as a cut
# across owners.
PHASE_LAYER = {
    "stage1": "hero.skills",
    "skill_episode": "hero.skills",
    "stage2": "hero.trainer",
    "learn": "hero.trainer",
    "act": "hero.trainer",
    "rollout_collect": "hero.trainer",
    "rollout": "hero.batched_rollout",
    "select": "hero.batched_rollout",
    "skills": "hero.batched_rollout",
    "accumulate": "hero.batched_rollout",
    "merge": "hero.batched_rollout",
    "sim_step": "sim",
    "obs_build": "sim",
    "opponent_update": "hero.opponent_model",
    "opponent_predict": "hero.opponent_model",
    "pool_idle": "runtime",
    "nn_forward": None,
    "nn_backward": None,
    "replay": None,
}

LAYERS = [
    "algos.sac", "hero.high_level", "hero.opponent_model",
    "hero.batched_rollout", "hero.skills", "hero.trainer", "sim", "runtime",
]


def layer_of(name, parent_layer, root):
    if name == "update":
        # SacAgent::update under stage 1, HeroAgent::update under stage 2.
        return "algos.sac" if root == "stage1" else "hero.high_level"
    if name in PHASE_LAYER:
        layer = PHASE_LAYER[name]
        return layer if layer is not None else parent_layer
    return parent_layer


def walk_phases(tree, roots=None):
    """Yields (path, node, self_s, layer) for every node of a phase tree as
    exported by obs::PhaseRegistry::json(). Self time is the node's total
    minus its children's totals. Only subtrees under `roots` are visited
    when given."""
    def visit(name, node, path, parent_layer, root):
        children = node.get("children", {})
        total = node["total_us"] / 1e6
        child_total = sum(c["total_us"] for c in children.values()) / 1e6
        layer = layer_of(name, parent_layer, root)
        yield path + (name,), node, total - child_total, layer
        for child_name, child in children.items():
            yield from visit(child_name, child, path + (name,), layer, root)

    for name, node in tree.items():
        if roots is not None and name not in roots:
            continue
        yield from visit(name, node, (), "other", name)


def layer_ledger(tree, wall_s):
    """Self time per layer over the stage-1 and stage-2 subtrees, the share
    of `wall_s` (the benchmark's own stage-1 + stage-2 span) each layer
    covers, and the total coverage."""
    seconds = {layer: 0.0 for layer in LAYERS}
    seconds["other"] = 0.0
    for _, _, self_s, layer in walk_phases(tree, roots=("stage1", "stage2")):
        seconds[layer] = seconds.get(layer, 0.0) + self_s
    covered = sum(s for layer, s in seconds.items() if layer != "other")
    shares = {layer: (s / wall_s if wall_s > 0 else 0.0) for layer, s in seconds.items()}
    return seconds, shares, (covered / wall_s if wall_s > 0 else 0.0)


def phase_sum(tree, name, roots=None, parent=None, field="total_us"):
    """Sum of `field` over every node called `name` (optionally only those
    whose parent is called `parent`)."""
    total = 0.0
    for path, node, _, _ in walk_phases(tree, roots):
        if path[-1] != name:
            continue
        if parent is not None and (len(path) < 2 or path[-2] != parent):
            continue
        total += node[field]
    return total


def hl_update_counts(tree):
    """(update calls, gradient steps) of the stage-2 high-level learner:
    HeroAgent::update is the 'update' phase under stage 2, and a gradient
    step is the 'replay' sample HighLevelAgent::update takes only once its
    buffer is warm."""
    calls = phase_sum(tree, "update", roots=("stage2",), field="count")
    steps = phase_sum(tree, "replay", roots=("stage2",), parent="update", field="count")
    return int(calls), int(steps)
