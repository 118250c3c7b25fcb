#!/usr/bin/env python3
"""End-to-end HERO benchmark (herobench/README.md).

    python3 herobench/run.py --workload paper_pipeline --seed 1 --seconds 15 --trace 0

Builds hero_bench and hero_serve from the checkout's sources on first use,
runs one workload, checks its outputs and prints, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. Exits non-zero without a result when
the sources are missing, the build is instrumented, or a step errors.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # the benchmark writes only its build tree
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "herobench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")

# Training budgets and training seeds are part of each workload's
# definition: a fixed (scenario, budget, seed) does the same work on every
# run, while the workload seed picks the evaluation episodes, the episodes
# replayed to the server and the arrival schedules. (Work per seed differs
# by up to a quarter at these budgets, which would swamp a timing gate.)
#
# The serve fixture is a small paper-scenario model every run serves.
FIXTURE = {"skill-episodes": 20, "episodes": 48, "batch-envs": 16,
           "hl-warmup": 8, "hl-batch": 8, "seed": 5}

WORKLOADS = {
    # The ROADMAP headline: the full paper pipeline, stage 2 batched.
    "paper_pipeline": {
        "train": {"skill-episodes": 50, "episodes": 200, "batch-envs": 16,
                  "seed": 1},
        "predicted": "algos.sac", "serve": "short"},
    # Stage 2 on the serial-width batched path with a token stage 1.
    "paper_stage2": {
        "train": {"skill-episodes": 10, "episodes": 100, "batch-envs": 1,
                  "seed": 1},
        "predicted": "hero.high_level", "serve": "short"},
    # Dense 32-vehicle traffic: 24 learners, 552 opponent predictors. Its
    # episodes end in a few steps, so the high-level warm-up and the
    # opponent predictors' minimum label count are lowered until both learn
    # from the first episodes on. Serial episodes keep each timed segment
    # short (README.md, "Timing on a shared host").
    "dense_stage2": {
        "train": {"scenario": "scenarios/dense_traffic.json",
                  "scenario-vehicles": 32, "skill-episodes": 10,
                  "episodes": 4, "batch-envs": 1, "hl-warmup": 8,
                  "hl-batch": 8, "opp-min-samples": 8, "seed": 1},
        "predicted": "hero.opponent_model", "serve": "short"},
    # hero_serve under open-loop load; its training is the fixture's.
    "serve_socket": {"train": FIXTURE, "predicted": None, "serve": "long"},
}

LIGHT_RPS = 2000.0
HEAVY_RPS = 32000.0
P99_LIMIT_US = 5000.0
# The fixed max-rate ladder: the light and heavy windows, then eighth-octave
# steps from 1.4x to 8x the heavy rate. It runs in passes, each on its own
# server and CPU, and a pass stops at its first rung that saturates.
LADDER = [HEAVY_RPS * 2.0 ** (k / 8.0) for k in range(4, 25)]
SERVE_PROFILES = {
    # Seconds per rate (split into LATENCY_WINDOWS windows) and per ladder
    # rung, ladder passes, closed-loop check length per connection, and
    # set-up samples (servers started and stopped again) after each window
    # and ladder pass, so they are spread over the run.
    "short": {"light": 2.4, "heavy": 1.6, "rung": 0.08, "passes": 1, "check": 50,
              "spawns": 0},
    "long": {"light": 4.0, "heavy": 4.0, "rung": 0.2, "passes": 3, "check": 200,
             "spawns": 2},
}
WARMUP_SHARE = 0.1  # leading share of each phase left out of its percentiles
LATENCY_WINDOWS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build --------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no sources: %s/src is missing" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = open(os.path.join(BUILD, "build.log"), "a")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=build_log, stderr=build_log)
    refuse_instrumented(os.path.join(BUILD, "CMakeCache.txt"))
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "--target", "hero_bench",
                    "hero_serve", "-j", jobs],
                   check=True, stdout=build_log, stderr=build_log)
    return os.path.join(BUILD, "hero_bench"), os.path.join(BUILD, "hero_serve")


def refuse_instrumented(cache_path):
    """Debug invariant checks and sanitizers slow the hot path by integer
    factors; numbers from such a build are not comparable."""
    with open(cache_path) as f:
        for line in f:
            if line.startswith("HERO_DEBUG_CHECKS:BOOL=ON"):
                raise BenchError("build configured with HERO_DEBUG_CHECKS=ON")
            if line.startswith(("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS")) \
                    and "-fsanitize" in line:
                raise BenchError("build carries -fsanitize flags")


def source_manifest():
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "herobench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


# --- running ------------------------------------------------------------------

# A run must end within three minutes of its build; the tools share what is
# left (main sets this once the build is done).
DEADLINE = None


def run_tool(cmd):
    timeout = max(1.0, DEADLINE - time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (os.path.basename(cmd[0]), proc.returncode,
                                                  proc.stderr.strip()[-2000:]))


def train(bench, spec, eval_seed, seconds, workdir, tag, min_reps):
    out = os.path.join(workdir, tag + ".json")
    cmd = [bench, "train", "--out", out, "--ckpt", os.path.join(workdir, tag + "_ckpt"),
           "--seconds", repr(seconds), "--min-reps", str(min_reps),
           "--eval-seed", str(eval_seed)]
    for key, value in spec.items():
        if key == "scenario":
            value = os.path.join(ROOT, value)
        cmd += ["--" + key, str(value)]
    run_tool(cmd)
    with open(out) as f:
        return json.load(f)


def serve_plan(seed, profile):
    lines = []

    def phase(name, rate, seconds, rung):
        arrivals = benchlib.arrival_schedule(seed, name, rate, seconds)
        lines.append("phase %s %r %d %d" % (name, rate, len(arrivals), rung))
        lines.extend("%d %.1f" % (conn, due) for due, conn in arrivals)

    spawned = itertools.count()

    def spawns():
        lines.extend("spawn setup%d" % next(spawned) for _ in range(profile["spawns"]))

    lines += ["server light", "pin 0", "check %d" % profile["check"]]
    for rate_name, rate in (("light", LIGHT_RPS), ("heavy", HEAVY_RPS)):
        if rate_name == "heavy":
            lines.append("server heavy")
        for w in range(LATENCY_WINDOWS):
            lines.append("pin %d" % w)
            phase("%s.%d" % (rate_name, w), rate, profile[rate_name] / LATENCY_WINDOWS, 0)
            spawns()
    # Ladder passes with the server on different CPUs.
    for p in range(profile["passes"]):
        lines += ["server ladder%d" % p, "pin %d" % (2 * p)]
        for rate in LADDER:
            phase("rung%d.%d" % (round(rate), p), rate, profile["rung"], 1)
        spawns()
    return "\n".join(lines) + "\n"


def serve(bench, serve_bin, ckpt, seed, profile, trace, workdir):
    plan = os.path.join(workdir, "plan.txt")
    with open(plan, "w") as f:
        f.write(serve_plan(seed, profile))
    out = os.path.join(workdir, "serve.json")
    sockets = os.path.join(workdir, "serve")
    os.makedirs(sockets, exist_ok=True)
    run_tool([bench, "serve", "--out", out, "--serve-bin", serve_bin, "--ckpt", ckpt,
              "--plan", plan, "--workdir", sockets, "--seed", str(seed),
              "--trace", "1" if trace else "0"])
    with open(out) as f:
        result = json.load(f)
    for server in result["servers"]:
        path = server["metrics"]
        server["snapshot"] = None
        if path:
            with open(os.path.join(sockets, path)) as f:
                server["snapshot"] = json.load(f)
    return result


# --- checks and metrics -----------------------------------------------------------

WORK_KEYS = ("stage1_steps", "stage2_steps", "stage2_episodes", "sac_updates",
             "opponent_updates")


def check_training(res, label, failures):
    first = res["instrumented"]
    if not res["reps"]:
        failures.append("%s: no timed repetition" % label)
    for i, rep in enumerate(res["reps"]):
        if len(rep["segments_s"]) != len(first["segments_s"]):
            failures.append("%s: repetition %d has %d pipeline segments, repetition 0 has %d"
                            % (label, i + 1, len(rep["segments_s"]),
                               len(first["segments_s"])))
        for key in WORK_KEYS:
            if rep[key] != first[key]:
                failures.append("%s: repetition %d %s=%s, repetition 0 has %s"
                                % (label, i + 1, key, rep[key], first[key]))
        if rep["eval"] != first["eval"]:
            failures.append("%s: repetition %d greedy eval differs" % (label, i + 1))
        if not rep["finite"]:
            failures.append("%s: repetition %d non-finite loss or reward" % (label, i + 1))
    if not first["finite"]:
        failures.append("%s: non-finite loss or reward" % label)
    counters = res["registry"]["counters"]
    for alert in ("obs.alerts.nan_loss", "obs.alerts.non_finite_grad"):
        if counters.get(alert, 0):
            failures.append("%s: %s fired %d times" % (label, alert, counters[alert]))
    if counters.get("sac.updates", 0) != first["sac_updates"]:
        failures.append("%s: sac.updates counter %s != derived SAC updates %s"
                        % (label, counters.get("sac.updates", 0), first["sac_updates"]))
    if not res["reload_eval_matches"]:
        failures.append("%s: reloaded checkpoint's greedy eval differs from the "
                        "in-memory model's" % label)


def training_summary(res):
    """Work counts (from the instrumented repetition) and medians of the
    timed repetitions; pipeline_s is taken segment by segment
    (benchlib.median_segments)."""
    first = res["instrumented"]
    _, hl_updates = benchlib.hl_update_counts(res["phases"])
    env_steps = first["stage1_steps"] + first["stage2_steps"]
    updates = first["sac_updates"] + hl_updates + first["opponent_updates"]
    # Repetitions with other segment counts fail check_training; they are
    # left out here so the failed run still prints its figures.
    segments = [r["segments_s"] for r in res["reps"]
                if len(r["segments_s"]) == len(first["segments_s"])]
    pipeline_s = benchlib.median_segments(segments or [first["segments_s"]])
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "pipeline_s": pipeline_s,
        "env_steps": env_steps,
        "hl_updates": hl_updates,
        "grad_updates": updates,
        "env_steps_per_s": env_steps / pipeline_s,
        "grad_updates_per_s": updates / pipeline_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in res["reps"]),
        "reps_s": [r["pipeline_s"] for r in res["reps"]],
    }


def windowed_percentile(phases, rate_name, want, over=statistics.median):
    """`over` (the median, or min for the fastest window) of each of the
    phase's windows' `want`-th percentile, leaving out each window's leading
    WARMUP_SHARE. Also returns the percentile actually used and the samples
    per window (benchlib.tail_percentile)."""
    per = []
    for w in range(LATENCY_WINDOWS):
        lat = phases["%s.%d" % (rate_name, w)]["latency_us"]
        per.append(benchlib.tail_percentile(lat[int(len(lat) * WARMUP_SHARE):], want))
    return over(v for _, v, _ in per), per[0][0], per[0][2]


def check_serving(res, failures):
    for phase in res["phases"]:
        if phase["failed"] or phase["answered"] != phase["sent"]:
            failures.append("serve %s: %d sent, %d answered, %d dropped or unmatched"
                            % (phase["name"], phase["sent"], phase["answered"],
                               phase["failed"]))
    check = next(p for p in res["phases"] if p["name"] == "check")
    if check["mismatches"]:
        failures.append("serve: %d replayed answers differ bitwise from in-process "
                        "PolicyEngine greedy output" % check["mismatches"])


def serving_summary(res):
    phases = {p["name"]: p for p in res["phases"]}
    out = {}
    for name in ("light", "heavy"):
        p50, _, _ = windowed_percentile(phases, name, 50.0, over=min)
        p99, used, n = windowed_percentile(phases, name, 99.0)
        out[name + "_p50_us"] = p50
        out[name + "_p99_us"] = p99
        out[name + "_p99_used"] = used
        out[name + "_samples"] = n
    # Per pass, the highest passing rung among that pass's rungs and the
    # light and heavy windows; the figure is the median over passes.
    windows = [p for p in res["phases"] if p["name"].startswith(("light.", "heavy."))]
    passes = {}
    for p in res["phases"]:
        if p["name"].startswith("rung"):
            passes.setdefault(p["name"].rsplit(".", 1)[1], []).append(p)
    out["max_rate_rps"] = statistics.median(
        benchlib.select_max_rate(windows + rungs, P99_LIMIT_US) for rungs in passes.values())
    out["rungs_run"] = sum(len(rungs) for rungs in passes.values())
    out["setup_s"] = statistics.median(s["setup_s"] for s in res["servers"])
    # The light server's: it serves the closed-loop check and the light
    # rate, where no queue builds. Under heavier load the peak also holds
    # whatever backlog a host stall left queued, which says more about the
    # host than about the server's footprint.
    out["peak_rss_mb"] = next(s["peak_rss_mb"] for s in res["servers"]
                              if s["name"] == "light")
    lags = [x for p in windows for x in p["lag_us"]]
    out["lag_p99_us"] = benchlib.tail_percentile(lags, 99.0)[1]
    groups = {}
    for p in res["phases"]:
        group = "ladder" if p["name"].startswith("rung") else p["name"].split(".")[0]
        counts = groups.setdefault(group, [0, 0, 0])
        for i, key in enumerate(("sent", "answered", "failed")):
            counts[i] += p[key]
    out["groups"] = groups
    out["sent"], out["answered"], out["failed"] = (
        sum(c[i] for c in groups.values()) for i in range(3))
    out["check_mismatches"] = sum(p["mismatches"] for p in res["phases"]
                                  if p["name"] == "check")
    out["openloop_mismatches"] = sum(p["mismatches"] for p in res["phases"]
                                     if p["name"] != "check")
    return out


def per_layer_training(res, train_sum, predicted):
    first = res["instrumented"]
    tree = res["phases"]
    counters = res["registry"]["counters"]
    wall = first["stage1_s"] + first["stage2_s"]
    seconds, shares, coverage = benchlib.layer_ledger(tree, wall)
    calls, hl_steps = benchlib.hl_update_counts(tree)
    fwd_calls = counters.get("nn.forward_calls", 0)
    bwd_calls = counters.get("nn.backward_calls", 0)
    fwd_rows = counters.get("nn.forward_rows", 0)
    bwd_rows = counters.get("nn.backward_rows", 0)
    stages = ("stage1", "stage2")
    m = {
        "algos.sac.update_s": seconds["algos.sac"],
        "algos.sac.updates": first["sac_updates"],
        "hero.skills.stage1_s": first["stage1_s"],
        "hero.high_level.update_s": seconds["hero.high_level"],
        "hero.high_level.updates": hl_steps,
        "hero.high_level.update_hit_ratio": hl_steps / calls if calls else 0.0,
        "hero.opponent_model.update_s":
            benchlib.phase_sum(tree, "opponent_update", stages) / 1e6,
        "hero.opponent_model.predict_s":
            benchlib.phase_sum(tree, "opponent_predict", stages) / 1e6,
        "hero.opponent_model.updates": first["opponent_updates"],
        "nn.forward_s": benchlib.phase_sum(tree, "nn_forward") / 1e6,
        "nn.backward_s": benchlib.phase_sum(tree, "nn_backward") / 1e6,
        "nn.forward_calls": fwd_calls,
        "nn.forward_rows": fwd_rows,
        "nn.backward_calls": bwd_calls,
        "nn.backward_rows": bwd_rows,
        "nn.rows_per_call": (fwd_rows + bwd_rows) / max(1, fwd_calls + bwd_calls),
        "hero.trainer.build_s": first["build_s"],
        "hero.checkpoint.save_s": first["save_s"],
        "hero.checkpoint.load_s": res["load_s"],
        "hero.checkpoint.bytes": res["checkpoint_bytes"],
        "hero.batched_rollout.rollout_s":
            benchlib.phase_sum(tree, "rollout", ("stage2",)) / 1e6,
        "hero.batched_rollout.select_s":
            benchlib.phase_sum(tree, "select", ("stage2",)) / 1e6,
        "hero.batched_rollout.skills_s":
            benchlib.phase_sum(tree, "skills", ("stage2",)) / 1e6,
        "hero.batched_rollout.merge_s":
            benchlib.phase_sum(tree, "merge", ("stage2",)) / 1e6,
        "sim.step_s": benchlib.phase_sum(tree, "sim_step", stages) / 1e6,
        "sim.obs_build_s": benchlib.phase_sum(tree, "obs_build", stages) / 1e6,
        "sim.steps": counters.get("sim.steps", 0),
        "rl.evaluation.eval_s": first["eval_s"],
        "rl.evaluation.episodes": first["eval"]["episodes"],
        "obs.tracing_overhead_s": first["pipeline_s"] - train_sum["pipeline_s"],
        "work.env_steps": train_sum["env_steps"],
        "work.grad_updates": train_sum["grad_updates"],
        "eval_collision_rate": first["eval"]["collision_rate"],
        "eval_success_rate": first["eval"]["success_rate"],
        "eval_reward": first["eval"]["mean_reward"],
        "ledger.coverage": coverage,
    }
    for layer in benchlib.LAYERS:
        m["ledger.share." + layer] = shares[layer]
    dominant = max(benchlib.LAYERS, key=lambda layer: seconds[layer])
    m["ledger.dominant_share"] = shares[dominant]
    ledger = {"dominant": dominant, "dominant_share": shares[dominant],
              "predicted": predicted, "coverage": coverage}
    return m, ledger


def server_hist(snapshot, name):
    return snapshot["histograms"].get(name, {}) if snapshot else {}


def per_layer_serving(res, serve_sum):
    servers = {s["name"]: s for s in res["servers"]}
    phases = {p["name"]: p for p in res["phases"]}
    m = {}
    for rate in ("light", "heavy"):
        snap = servers[rate]["snapshot"]
        lat = server_hist(snap, "serve.latency_us")
        batch = server_hist(snap, "serve.batch_size")
        depth = server_hist(snap, "serve.queue_depth")
        m["serve.%s.server_latency_p50_us" % rate] = lat.get("p50", 0.0)
        m["serve.%s.server_latency_p99_us" % rate] = lat.get("p99", 0.0)
        m["serve.%s.batch_fill_ratio" % rate] = batch.get("mean", 0.0) / 16.0
        m["serve.%s.queue_depth_p99" % rate] = depth.get("p99", 0.0)
    heavy = servers["heavy"]["snapshot"]
    act = heavy["phases"].get("serve_act", {}) if heavy else {}
    m["serve.act_s"] = act.get("total_us", 0.0) / 1e6
    m["serve.batches"] = heavy["counters"].get("serve.batches", 0) if heavy else 0
    client_p50 = windowed_percentile(phases, "heavy", 50.0)[0]
    m["serve.transport_p50_us"] = client_p50 - m["serve.heavy.server_latency_p50_us"]
    m["serve.protocol_errors"] = sum(
        s["snapshot"]["counters"].get("serve.protocol_errors", 0)
        for s in res["servers"] if s["snapshot"])
    m["serve.openloop_mismatches"] = serve_sum["openloop_mismatches"]
    # The tails and the ladder's top swing with host stalls and contention,
    # so they are per-layer figures rather than gated end-to-end ones
    # (README.md, "Tails and the ladder").
    m["light_p99_us"] = serve_sum["light_p99_us"]
    m["heavy_p99_us"] = serve_sum["heavy_p99_us"]
    m["max_rate_rps"] = serve_sum["max_rate_rps"]
    m["loadgen.lag_p99_us"] = serve_sum["lag_p99_us"]
    m["loadgen.sent"] = serve_sum["sent"]
    m["loadgen.answered"] = serve_sum["answered"]
    return m


def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    bench, serve_bin = build()
    global DEADLINE
    DEADLINE = time.monotonic() + 170.0
    e2e_units, layer_units = metric_units()
    workdir = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    failures = []
    started = time.monotonic()

    is_serve = wl["serve"] == "long"
    # Serving runs first, on a quiet process tree: a training workload's
    # freed memory would otherwise be reclaimed under the latency phases.
    fixture = train(bench, FIXTURE, args.seed, 0.15 * args.seconds if is_serve else 0.0,
                    workdir, "fixture", min_reps=5 if is_serve else 1)
    check_training(fixture, "serve fixture", failures)
    log("serve fixture trained at %.1f s" % (time.monotonic() - started))
    serve_res = serve(bench, serve_bin, os.path.join(workdir, "fixture_ckpt"), args.seed,
                      SERVE_PROFILES[wl["serve"]], args.trace == 1, workdir)
    check_serving(serve_res, failures)
    serve_sum = serving_summary(serve_res)
    log("serving done at %.1f s" % (time.monotonic() - started))

    if is_serve:
        train_res = fixture
    else:
        train_res = train(bench, wl["train"], args.seed, 0.7 * args.seconds, workdir,
                          "train", min_reps=2)
        check_training(train_res, args.workload, failures)
    train_sum = training_summary(train_res)

    values = {
        "setup_s": serve_sum["setup_s"] if is_serve else train_sum["setup_s"],
        "pipeline_s": train_sum["pipeline_s"],
        "env_steps_per_s": train_sum["env_steps_per_s"],
        "grad_updates_per_s": train_sum["grad_updates_per_s"],
        "peak_rss_mb": serve_sum["peak_rss_mb"] if is_serve else train_sum["peak_rss_mb"],
        "light_p50_us": serve_sum["light_p50_us"],
        "heavy_p50_us": serve_sum["heavy_p50_us"],
    }
    layer_values, ledger = per_layer_training(train_res, train_sum, wl["predicted"])
    layer_values.update(per_layer_serving(serve_res, serve_sum) if args.trace else {})

    manifest = dict(train_res["manifest"], seed=args.seed, workload=args.workload,
                    **source_manifest())
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("timed pipelines: " + " ".join("%.3f" % t for t in train_sum["reps_s"]) + " s")
    print("work: %d env steps, %d SAC + %d high-level + %d opponent gradient updates"
          % (train_sum["env_steps"], train_res["instrumented"]["sac_updates"],
             train_sum["hl_updates"], train_res["instrumented"]["opponent_updates"]))
    ev = train_res["instrumented"]["eval"]
    print("quality: greedy collision %.3f, success %.3f, reward %.4f over %d episodes"
          % (ev["collision_rate"], ev["success_rate"], ev["mean_reward"], ev["episodes"]))
    print("ledger: dominant layer %s at %.1f%% of stage 1 + 2 (predicted %s); "
          "coverage %.1f%%; runtime is idle in these single-threaded workloads "
          "and is not measured"
          % (ledger["dominant"], 100 * ledger["dominant_share"],
             ledger["predicted"] or "none for the serve fixture",
             100 * ledger["coverage"]))
    print("serve: light p99 %.1f us (the p%.2f of %d samples a window), heavy p99 %.1f us "
          "(the p%.2f of %d); max rate %.0f/s over %d ladder rungs; lag p99 %.0f us"
          % (serve_sum["light_p99_us"], serve_sum["light_p99_used"],
             serve_sum["light_samples"], serve_sum["heavy_p99_us"],
             serve_sum["heavy_p99_used"], serve_sum["heavy_samples"],
             serve_sum["max_rate_rps"], serve_sum["rungs_run"], serve_sum["lag_p99_us"]))
    print("requests: " + "; ".join("%s %d sent, %d answered, %d failed" % (g, *c)
                                   for g, c in serve_sum["groups"].items()))
    for f in failures:
        print("CHECK FAILED: " + f)

    if args.trace:
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in e2e_units.items()}
    for name, m in metrics.items():
        print("%-44s %18.6f %s" % (name, m["value"], m["unit"]))
    attempted = (1 + len(train_res["reps"]) + serve_sum["sent"])
    failed = serve_sum["failed"] + serve_sum["check_mismatches"] + len(failures)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    log("run took %.1f s" % (time.monotonic() - started))
    if not failures:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if not failures else 3


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, KeyError, ValueError) as e:
        log("herobench: %s" % e)
        sys.exit(2)
