"""Time one set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first real command: importing
orbifold and orbifold.cli, then one small warm-up command per command kind
the workload uses.  run.py starts this script several times, one at a time,
and reports the median as setup_s.

    python3 perfbench/setup_probe.py WORKLOAD WARMUP_DIR

prints the seconds taken, or exits 1 if a warm-up command did not give its
expected exit code.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def warmup_ops(workload: str, warmup_dir: str) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of the workload's warm-up commands, all at p = 3.

    The certify warm-ups read warm_accept.json and warm_reject.json, which
    run.py writes into warmup_dir.
    """
    if workload == "enumerate":
        return [
            (["table", "--p", "3", "--workers", "1"], 0),
            (["enumerate", "--p", "3", "--format", "json", "--workers", "1"], 0),
            (["enumerate", "--p", "3", "--format", "csv", "--workers", "1"], 0),
            (["enumerate", "--p", "3", "--mode", "brute_force", "--format", "csv",
              "--workers", "1"], 0),
        ]
    if workload == "certify":
        return [
            (["check", os.path.join(warmup_dir, f"warm_{label}.json"), "--oracle",
              "--degree", "4", "--format", "json", "--workers", "1"], code)
            for label, code in (("accept", 0), ("reject", 2))
        ]
    if workload == "chains":
        return [(["chaincheck", "--p", "3", "--degree", "2", "--format", "json",
                  "--workers", "1"], 0)]
    raise ValueError(f"unknown workload {workload!r}")


def run_quietly(main, argv: list[str]) -> tuple[int, str]:
    """Run the CLI entry point with stdout captured and stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def main() -> int:
    workload, warmup_dir = sys.argv[1], sys.argv[2]
    ops = warmup_ops(workload, warmup_dir)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import orbifold  # noqa: F401
    import orbifold.cli

    codes = [run_quietly(orbifold.cli.main, argv)[0] for argv, _ in ops]
    elapsed = time.perf_counter() - start
    if codes != [code for _, code in ops]:
        print(f"warm-up exit codes {codes} are not the expected ones", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
