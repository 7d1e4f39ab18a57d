"""Self-tests of the benchmark, at small sizes (a few seconds in all).

    python3 perfbench/selftest.py

They check that a wrong output is counted as a failure, that a traced run
reports every per-layer name, and that per-layer self times add up to the
traced wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (pins thread pools before numpy loads)
import workloads  # noqa: E402
from layertrace import SPANS, Tracer, per_layer_metrics  # noqa: E402
from orbifold.group_algebra import GroupAlgebraElement  # noqa: E402
from reference import parse_element  # noqa: E402

SELF_TIME_MARGIN = 0.02  # self times may miss at most 2 % of the traced wall

# Per-layer names each workload must drive above zero; the rest may read 0.
REACHED = {
    "enumerate": [
        "group_algebra.add", "group_algebra.scale", "group_algebra.gminus1_factor",
        "group_algebra.to_text", *[n for n in SPANS if n.startswith("solver.")],
        "solver.records", "solver.solutions", "cli.main", "cli.stdout_bytes",
    ],
    "certify": [
        "group_algebra.add", "group_algebra.scale",
        *[n for n in SPANS if n.split(".")[0] in ("action", "params", "pbw", "rewriting")],
        "rewriting.irreducible_words", "rewriting.reduce_word.distinct_ratio",
        "cli.main", "cli.stdout_bytes",
    ],
    "chains": [
        *[n for n in SPANS if n.startswith("chains.")], "chains.bar_tensors",
        "cli.main", "cli.stdout_bytes",
    ],
}


def small_workloads(tmp: str) -> dict:
    warm_dir = os.path.join(tmp, "warmup")
    files_dir = os.path.join(tmp, "params")
    os.makedirs(warm_dir)
    os.makedirs(files_dir)
    workloads.write_certify_warmups(warm_dir)
    return {
        "enumerate": workloads.enumerate_workload(p=3, warmup_dir=warm_dir),
        "certify": workloads.certify_workload(
            7, files_dir, p=3, accepts_per_class=1, rejects_per_accept=10, warmup_dir=warm_dir
        ),
        "chains": workloads.chains_workload(sweep=(3, 4), small=(3, 2), small_reps=3,
                                            warmup_dir=warm_dir),
    }


def failures(workload) -> int:
    outcomes = [ok for _, ok in map(workloads.run_op, workload.warmups)]
    outcomes += [r.ok for r in workloads.run_pass(workload)]
    return outcomes.count(False)


def with_output_changed(change):
    """A stand-in for cli.main that runs the real one and passes its
    (argv, exit code, stdout) through `change` before printing."""
    real = workloads.cli.main

    def fake(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real(argv)
        code, out = change(argv, code, buf.getvalue())
        sys.stdout.write(out)
        return code

    return fake


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=run.OUT_DIR)
        cls.workloads = small_workloads(cls._tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def test_correct_outputs_pass(self):
        for name, workload in self.workloads.items():
            with self.subTest(workload=name):
                self.assertEqual(failures(workload), 0)

    def test_corrupted_enumerate_output_fails(self):
        def duplicate_a_row(argv, code, out):
            if argv[-1] != "csv":
                return code, out
            lines = out.splitlines(keepends=True)
            return code, "".join(lines[:-1] + [lines[1]])

        workload = workloads.enumerate_workload(p=3)  # fresh checks, no remembered outputs
        with mock.patch.object(workloads.cli, "main", with_output_changed(duplicate_a_row)):
            self.assertEqual(failures(workload), 2)  # the closed-form and brute-force csv

    def test_flipped_verdict_fails(self):
        flipped = self.workloads["certify"].ops[0].argv

        def flip(argv, code, out):
            if argv != flipped:
                return code, out
            payload = json.loads(out)
            payload["pbw"] = not payload["pbw"]
            return 2 - code, json.dumps(payload)

        with mock.patch.object(workloads.cli, "main", with_output_changed(flip)):
            self.assertEqual(failures(self.workloads["certify"]), 1)

    def test_trace_reports_every_layer_name(self):
        expected = {m["name"] for m in per_layer_metrics()}
        for name, workload in self.workloads.items():
            with self.subTest(workload=name):
                tracer = Tracer()
                with tracer.installed():
                    workloads.run_pass(workload, tracer)
                values = {**tracer.metrics(1), "trace_overhead": 1.0}
                self.assertEqual(set(values), expected)
                for reached in REACHED[name]:
                    key = f"{reached}.calls" if reached in SPANS else reached
                    self.assertGreater(values[key], 0, key)

    def test_self_times_add_up_to_traced_wall(self):
        for name, workload in self.workloads.items():
            with self.subTest(workload=name):
                tracer = Tracer()
                with tracer.installed():
                    results = workloads.run_pass(workload, tracer)
                wall = run.pass_wall(results)
                covered = sum(tracer.self_s.values())
                self.assertLessEqual(covered, wall)
                self.assertGreater(covered, (1 - SELF_TIME_MARGIN) * wall)

    def test_tracer_restores_the_package(self):
        main = workloads.cli.main
        with Tracer().installed():
            self.assertIsNot(workloads.cli.main, main)
        self.assertIs(workloads.cli.main, main)

    def test_parser_reads_the_program_text(self):
        rng = random.Random(3)
        for p in (3, 5, 7):
            for _ in range(200):
                x = GroupAlgebraElement.random(rng, p)
                self.assertEqual(parse_element(p, x.to_text()), x.coeffs)

    def test_refuses_guard_override(self):
        with mock.patch.dict(os.environ, {"ORBIFOLD_MAX_P": "7"}), \
                contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(run.main(["--workload", "chains", "--seed", "1",
                                       "--seconds", "1"]), 1)

    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [(name, unit, better) for name, (unit, better) in run.END_TO_END.items()],
        )
        self.assertEqual(spec["per_layer"], per_layer_metrics())


if __name__ == "__main__":
    unittest.main()
