#!/usr/bin/env python3
"""Tests of the repository benchmark itself (tiny sizes, ~30 s).

    python3 perfbench/test_perfbench.py

- a tiny-size run of every workload completes, in both modes, with
  every gate passing;
- every declared metric name is well formed and is emitted, with its
  declared unit, in the mode that owns it;
- the determinism gate trips on a perturbed digest, and the digest
  tracks the simulated counters: two seeds give different digests;
- a failed job is counted, and no metric is derived from it.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job_digests(workload, trace, seed):
    """Per-job digests from the result file of a bench() run."""
    path = os.path.join(run.build_dir(), "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return [j["digest"] for j in json.load(f)["jobs"]]


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.e2e_decl, cls.layer_decl = run.load_declared()
        cls.results = {(w, t): bench(w, t) for w in run.WORKLOADS
                       for t in (0, 1)}

    def test_every_workload_completes_with_gates_passing(self):
        for (w, t), r in self.results.items():
            with self.subTest(workload=w, trace=t):
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})

    def test_declared_metric_names_are_well_formed_and_emitted(self):
        names = [m["name"] for m in self.e2e_decl + self.layer_decl]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for (w, t), r in self.results.items():
            decl = self.layer_decl if t else self.e2e_decl
            with self.subTest(workload=w, trace=t):
                self.assertEqual(set(r["metrics"]),
                                 {m["name"] for m in decl})
                for m in decl:
                    got = r["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_metrics_are_nonzero(self):
        for w in run.WORKLOADS:
            for name, m in self.results[(w, 0)]["metrics"].items():
                with self.subTest(workload=w, metric=name):
                    self.assertGreater(m["value"], 0)

    def test_digest_tracks_the_simulated_counters(self):
        # The seed drives paging_oversub's lookup stream, so a second
        # seed changes the counters and must change every job digest.
        five = job_digests("paging_oversub", 0, 5)
        bench("paging_oversub", 0, seed=6)
        six = job_digests("paging_oversub", 0, 6)
        self.assertTrue(five and six)
        self.assertTrue(set(five).isdisjoint(six), (five, six))


class Gate(unittest.TestCase):
    def job(self, pass_name, digest, ok=True):
        return {"pass": pass_name, "digest": digest, "ok": ok,
                "error": "" if ok else "boom"}

    def test_sharded_passes_are_compared_with_each_other_only(self):
        doc = {"jobs": [self.job("plain", "a"), self.job("traced", "a"),
                        self.job("shards1", "b"), self.job("shardsN", "b")],
               "fidelity_job": []}
        self.assertEqual(run.gate(doc), [])
        doc["jobs"][3]["digest"] = "c"
        self.assertEqual(len(run.gate(doc)), 1)

    def test_perturbed_serial_digest_trips_the_gate(self):
        doc = {"jobs": [self.job("plain", "a"), self.job("plain", "b")],
               "fidelity_job": []}
        self.assertEqual(len(run.gate(doc)), 1)

    def test_a_failed_job_is_counted_not_raised(self):
        doc = {"jobs": [self.job("plain", "a"), self.job("plain", "a", False)],
               "fidelity_job": [self.job("fidelity", "z", False)]}
        self.assertEqual(len(run.gate(doc)), 2)

    def test_a_failed_job_is_never_the_reference(self):
        doc = {"jobs": [self.job("plain", "partial", False),
                        self.job("plain", "a"), self.job("plain", "a")],
               "fidelity_job": []}
        self.assertEqual(len(run.gate(doc)), 1)


class NoFinishedJob(unittest.TestCase):
    """Jobs that failed in their first cell leave no metric behind."""

    def failed(self, pass_name, warmup=False):
        return {"pass": pass_name, "warmup": warmup, "ok": False,
                "error": "cell 0: boom", "digest": "x", "bind_s": 0.001,
                "system_s": 0, "place_s": 0, "run_s": 0, "cycles": [],
                "counters": {}, "prof": {}}

    def doc(self, workload, passes):
        return {"workload": workload, "peak_rss_mb": 19.0, "shards_n": 4,
                "cells": [], "fidelity_cells": [],
                "fidelity_job": [self.failed("fidelity")],
                "jobs": [self.failed(p, warmup=(i == 0))
                         for i, p in enumerate(passes)]}

    def test_end_to_end_reports_every_metric_absent(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload), \
                    contextlib.redirect_stdout(io.StringIO()):
                values, _ = run.end_to_end(self.doc(workload,
                                                    ["plain", "plain"]))
                self.assertEqual(set(values.values()), {None})

    def test_per_layer_reports_every_metric_absent(self):
        passes = ["plain", "profiled", "traced", "shards1", "shardsN"]
        values, _ = run.per_layer(self.doc("serve_churn64", passes))
        self.assertEqual(set(values.values()), {None})


if __name__ == "__main__":
    unittest.main()
