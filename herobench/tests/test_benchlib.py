"""Self-tests of the benchmark's own logic.

    python3 -m unittest discover -s herobench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchlib  # noqa: E402


def node(total_us, count=1, children=None):
    return {"count": count, "total_us": total_us, "children": children or {}}


# A stage-1 SAC update and a stage-2 round with high-level and opponent work,
# shaped like obs::PhaseRegistry::json() output.
TREE = {
    "stage1": node(1000.0, children={
        "skill_episode": node(990.0, 10, {
            "update": node(900.0, 50, {
                "nn_forward": node(500.0, 400),
                "nn_backward": node(300.0, 150),
                "replay": node(10.0, 50),
            }),
            "sim_step": node(20.0, 100),
        }),
    }),
    "stage2": node(600.0, children={
        "learn": node(500.0, 4, {
            "update": node(480.0, 12, {
                "opponent_update": node(100.0, 12, {"nn_forward": node(40.0, 24)}),
                "opponent_predict": node(60.0, 8, {"nn_forward": node(50.0, 16)}),
                "nn_forward": node(200.0, 24),
                "replay": node(4.0, 8),
            }),
            "merge": node(10.0, 4),
        }),
        "rollout": node(95.0, 4, {
            "sim_step": node(5.0, 40),
            "select": node(30.0, 40, {"nn_forward": node(20.0, 40)}),
        }),
    }),
    "act_rows": node(50.0, 3),
}


class PhaseTreeTest(unittest.TestCase):
    def test_self_time_is_total_minus_children(self):
        seen = {path: self_s for path, _, self_s, _ in benchlib.walk_phases(TREE)}
        self.assertAlmostEqual(seen[("stage1", "skill_episode", "update")],
                               (900.0 - 500.0 - 300.0 - 10.0) / 1e6)
        self.assertAlmostEqual(seen[("stage2", "learn", "update")],
                               (480.0 - 100.0 - 60.0 - 200.0 - 4.0) / 1e6)
        self.assertAlmostEqual(seen[("stage2", "rollout", "select", "nn_forward")], 20.0 / 1e6)
        # Self times of a subtree add up to its root's total.
        stage2 = sum(s for p, _, s, _ in benchlib.walk_phases(TREE, ("stage2",)))
        self.assertAlmostEqual(stage2, 600.0 / 1e6)

    def test_ledger_attributes_kernels_to_their_caller(self):
        seconds, shares, coverage = benchlib.layer_ledger(TREE, wall_s=1600.0 / 1e6)
        self.assertAlmostEqual(seconds["algos.sac"], 900.0 / 1e6)
        self.assertAlmostEqual(seconds["hero.opponent_model"], 160.0 / 1e6)
        self.assertAlmostEqual(seconds["hero.high_level"], 320.0 / 1e6)
        self.assertAlmostEqual(seconds["sim"], 25.0 / 1e6)
        self.assertAlmostEqual(coverage, 1.0)
        self.assertAlmostEqual(shares["algos.sac"], 900.0 / 1600.0)
        # act_rows (evaluation) is outside stage 1 + 2 and not in the ledger.
        self.assertEqual(seconds["other"], 0.0)

    def test_coverage_counts_phase_time_against_wall_time(self):
        tree = dict(TREE, stage2=node(600.0, children={"mystery": node(600.0)}))
        _, _, coverage = benchlib.layer_ledger(tree, wall_s=1600.0 / 1e6)
        # "mystery" inherits stage2's layer, so it stays covered ...
        self.assertAlmostEqual(coverage, 1.0)
        # ... while wall time outside any phase is not.
        _, _, coverage = benchlib.layer_ledger(TREE, wall_s=3200.0 / 1e6)
        self.assertAlmostEqual(coverage, 0.5)

    def test_high_level_update_counts(self):
        self.assertEqual(benchlib.hl_update_counts(TREE), (12, 8))


class PercentileTest(unittest.TestCase):
    def test_p99_when_enough_samples(self):
        samples = list(range(1, 2001))
        used, value, n = benchlib.tail_percentile(samples, 99.0)
        self.assertEqual((used, value, n), (99.0, 1980, 2000))

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 501))
        used, value, n = benchlib.tail_percentile(samples, 99.0)
        self.assertAlmostEqual(used, 98.0)
        self.assertEqual(n, 500)
        self.assertEqual(value, 490)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_order_does_not_matter(self):
        samples = list(range(50, 0, -1))
        self.assertEqual(benchlib.tail_percentile(samples, 50.0), (50.0, 25, 50))

    def test_too_few_samples_for_any_tail(self):
        self.assertEqual(benchlib.tail_percentile([5, 1, 3], 99.0), (0.0, 1, 3))


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = benchlib.arrival_schedule(7, "light", 2000.0, 0.5)
        b = benchlib.arrival_schedule(7, "light", 2000.0, 0.5)
        self.assertEqual(a, b)
        self.assertNotEqual(a, benchlib.arrival_schedule(8, "light", 2000.0, 0.5))
        self.assertNotEqual(a, benchlib.arrival_schedule(7, "heavy", 2000.0, 0.5))

    def test_poisson_rate_sorted_over_connections(self):
        arrivals = benchlib.arrival_schedule(1, "x", 10000.0, 2.0)
        self.assertLess(abs(len(arrivals) - 20000), 600)
        self.assertEqual(arrivals, sorted(arrivals))
        self.assertEqual({c for _, c in arrivals}, {0, 1, 2})
        self.assertTrue(all(0 < t <= 2e6 for t, _ in arrivals))


class EstimateTest(unittest.TestCase):
    def test_median_segments_sums_each_positions_median(self):
        reps = [[1.0, 5.0, 2.0], [2.0, 3.0, 2.5], [1.5, 4.0, 9.0]]
        self.assertEqual(benchlib.median_segments(reps), 1.5 + 4.0 + 2.5)
        self.assertEqual(benchlib.median_segments([[0.5, 0.25]]), 0.75)
        self.assertEqual(benchlib.median_segments([[1.0], [2.0]]), 1.5)

    def test_median_segments_refuses_unequal_work(self):
        with self.assertRaises(ValueError):
            benchlib.median_segments([[1.0, 2.0], [1.0]])


def rung(rate, p99_us, drain_s=0.001, failed=0):
    # 1000 samples: 989 at 100 us, the tail at p99_us.
    lat = [100.0] * 989 + [p99_us] * 11
    return {"rate": rate, "latency_us": lat, "sent": 1000,
            "answered": 1000 - failed, "failed": failed, "drain_s": drain_s}


class LadderTest(unittest.TestCase):
    LIMIT = 2000.0

    def test_highest_passing_rung(self):
        rungs = [rung(1000, 900), rung(2000, 1200), rung(4000, 1500),
                 rung(8000, 60000, drain_s=0.2)]
        self.assertEqual(benchlib.select_max_rate(rungs, self.LIMIT), 4000)

    def test_light_rate_fails_and_heavier_passes(self):
        # The micro-batcher's wait breaks the limit at the light rate only.
        rungs = [rung(1000, 3000), rung(8000, 900), rung(16000, 1100),
                 rung(32000, 2500)]
        self.assertEqual(benchlib.select_max_rate(rungs, self.LIMIT), 16000)

    def test_growing_backlog_or_drops_fail_a_rung(self):
        rungs = [rung(1000, 500), rung(2000, 500, drain_s=0.05),
                 rung(3000, 500, failed=1)]
        self.assertEqual(benchlib.select_max_rate(rungs, self.LIMIT), 1000)
        self.assertEqual(benchlib.select_max_rate(rungs[1:], self.LIMIT), 0.0)


class ContractTest(unittest.TestCase):
    """BENCHMARK.json stays within the limits the benchmark is run under."""

    def test_benchmark_json(self):
        with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                               "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(name.match(n) for n in names))
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for m in spec["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(unit.match(m["unit"]))
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
