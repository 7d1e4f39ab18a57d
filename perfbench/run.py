"""Benchmark of the orbifold command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an orbifold checkout.  Workloads (see README.md):
``enumerate``, ``certify`` and ``chains``.  The workload runs in this one
process, driving ``orbifold.cli.main`` with ``--workers 1``, and repeats its
pass of commands as long as the next pass is expected to end within S
seconds (at least one pass).  Every
output is checked; a wrong or failed command counts in ``failed``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` one untraced pass is followed by traced passes, and the
last line carries the per-layer metrics instead; the spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in the probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("enumerate", "certify", "chains")
SETUP_PROBES = 10

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "heavy_ref_ratio": ("ratio", "lower"),
    "light_ref_ratio": ("ratio", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment_error() -> str | None:
    if os.environ.get("ORBIFOLD_MAX_P") is not None:
        return "ORBIFOLD_MAX_P is set; it moves the guards and the prime ceiling, so refusing to run"
    if not os.path.isdir(os.path.join(SRC, "orbifold")):
        return f"no orbifold package under {SRC}; run from the root of an orbifold checkout"
    return None


def git_commit() -> str:
    """The checked-out commit, read from .git without starting git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_note() -> dict:
    """Context for the numbers; none of it is a gated metric."""
    import numpy
    import orbifold

    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "orbifold", "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "orbifold": orbifold.__version__,
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def build_workload(name: str, seed: int, tmp: str):
    import workloads

    warm_dir = os.path.join(tmp, "warmup")
    os.makedirs(warm_dir)
    workloads.write_certify_warmups(warm_dir)
    if name == "enumerate":
        return workloads.enumerate_workload(warmup_dir=warm_dir), warm_dir
    if name == "certify":
        files_dir = os.path.join(tmp, "params")
        os.makedirs(files_dir)
        return workloads.certify_workload(seed, files_dir, warmup_dir=warm_dir), warm_dir
    return workloads.chains_workload(warmup_dir=warm_dir), warm_dir


def probe_setup(workload: str, warm_dir: str) -> float:
    """One set-up in a fresh interpreter (see setup_probe.py); waits for it to end."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, warm_dir],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def measure(workload, seconds: float, tracer=None) -> list:
    """Whole passes while another one is expected to end within `seconds`; at least one."""
    from workloads import run_pass

    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, tracer))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def pass_wall(results) -> float:
    return sum(r.seconds for r in results)


def run(args) -> tuple[dict, dict]:
    """Run the workload; return (result line, context line)."""
    import workloads
    from layertrace import Tracer, per_layer_metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload, warm_dir = build_workload(args.workload, args.seed, tmp)
        outcomes = [ok for _, ok in map(workloads.run_op, workload.warmups)]
        if args.trace:
            untraced = measure(workload, 0)
            tracer = Tracer()
            with tracer.installed():
                traced = measure(workload, args.seconds, tracer)
            passes = untraced + traced
        else:
            # Half the set-ups before the passes and half after, so that they
            # do not all fall into one slow or fast spell of a shared host.
            setup = [probe_setup(args.workload, warm_dir) for _ in range(SETUP_PROBES // 2)]
            passes = measure(workload, args.seconds)
            setup += [probe_setup(args.workload, warm_dir)
                      for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    outcomes += [r.ok for results in passes for r in results]
    failed = outcomes.count(False)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "fail_ratio": failed / len(outcomes),
        "host": host_note(),
    }
    if args.trace:
        overhead = statistics.median(map(pass_wall, traced)) / pass_wall(untraced[0])
        values = {**tracer.metrics(len(traced)), "trace_overhead": overhead}
        units = {m["name"]: m["unit"] for m in per_layer_metrics()}
        traced_wall = sum(map(pass_wall, traced))
        context["self_time_share"] = sum(tracer.self_s.values()) / traced_wall
        context["spans_file"] = write_spans(args, tracer, context)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **workloads.end_to_end(passes),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        context["named"] = workloads.named_metrics(workload, passes)
        context["setup_samples"] = setup
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, context


def write_spans(args, tracer, context) -> str:
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    fields = ("id", "parent", "op", "name", "start", "end")
    with open(path, "w") as fh:
        json.dump({**context, "fields": fields, "spans": tracer.spans}, fh)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    args = parse_args(argv)
    error = environment_error()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    result, context = run(args)
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
