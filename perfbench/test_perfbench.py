#!/usr/bin/env python3
"""The benchmark's own tests. Run from anywhere:

    python3 perfbench/test_perfbench.py

They build the benchmark (as run.py does) and make short runs of every
workload, so they take a couple of minutes.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's entry point, imported for paths)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
MODELLED = ("ans_size_mean", "qos_overhead_mean", "sim_converge_s",
            "control_kb_per_run", "unconverged_runs", "delivery_ratio",
            "latency_ms_p50", "latency_ms_p95")


def bench(workload, seed, trace=0, seconds=1):
    """run.py's last stdout line, parsed, plus every printed metric line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = (parts[1], parts[2])
    return proc.returncode, json.loads(lines[-1]), printed


def program(workload, seed):
    """The measuring program's own result (every metric it computes)."""
    exe = run.build()
    out = subprocess.run([str(exe), "--workload", workload, "--seed",
                          str(seed), "--seconds", "0.001", "--trace", "0"],
                         capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in CONFIG["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in CONFIG[group]:
                names.append(metric["name"])
                self.assertRegex(metric["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is reused")


class EveryMetricPrinted(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, printed = bench(workload, 3, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for metric in CONFIG[group]:
                        name, unit = metric["name"], metric["unit"]
                        self.assertEqual(result["metrics"][name]["unit"],
                                         unit)
                        self.assertEqual(printed[name][1], unit)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in CONFIG[group]})


class Determinism(unittest.TestCase):
    def test_modelled_metrics_repeat_at_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = program(workload, 5), program(workload, 5)
                self.assertEqual(a["digest"], b["digest"])
                for name in MODELLED:
                    self.assertEqual(a["metrics"].get(name),
                                     b["metrics"].get(name), name)

    def test_another_seed_changes_the_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(program(workload, 5)["digest"],
                                    program(workload, 6)["digest"])


if __name__ == "__main__":
    unittest.main()
