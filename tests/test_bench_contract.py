"""What the benchmark in perfbench/ needs from the package.

perfbench/ is only read here.  Its tracer names functions of the package by
"module:attribute" targets, and its workloads drive the command line with
fixed argument lists and parameter files; a change to the package that drops
a traced name or an option the workloads pass, or refuses a file they write,
fails here, before the benchmark breaks.
"""

import ast
import hashlib
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import orbifold.cli as cli
from orbifold.params import DeformationParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TARGET = re.compile(r"[a-z_]+:[A-Za-z_][\w.]*")


def perfbench_module(name):
    """Import a perfbench script as a module, with perfbench/ on the path while it loads."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


layertrace = perfbench_module("layertrace")


def traced_targets():
    """Every "module:attribute" string in layertrace.py: the spans and the counters."""
    tree = ast.parse((PERFBENCH / "layertrace.py").read_text())
    return sorted({
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and TARGET.fullmatch(node.value)
    })


def test_every_traced_target_resolves():
    targets = traced_targets()
    spans = {t for ts in layertrace.SPANS.values() for t in ts}
    assert spans < set(targets)  # the counters' targets come on top
    missing = []
    for target in targets:
        try:
            layertrace._resolve(target)
        except (KeyError, AttributeError):
            missing.append(target)
    assert not missing


def test_tracer_installs_and_restores():
    main = cli.main
    with layertrace.Tracer().installed():
        assert cli.main is not main
    assert cli.main is main


@pytest.fixture()
def written(tmp_path):
    """The three workloads, and the directories of parameter files that the
    certify workload and the warm-ups write."""
    workloads = perfbench_module("workloads")
    warm, files = tmp_path / "warmup", tmp_path / "params"
    warm.mkdir()
    files.mkdir()
    workloads.write_certify_warmups(str(warm))
    built = [
        workloads.enumerate_workload(warmup_dir=str(warm)),
        workloads.certify_workload(1, str(files), warmup_dir=str(warm)),
        workloads.chains_workload(warmup_dir=str(warm)),
    ]
    return built, (warm, files)


def test_every_workload_command_parses(written):
    built, _ = written
    parser = cli.build_parser()
    for workload in built:
        assert workload.ops and workload.warmups
        for op in workload.warmups + workload.ops:
            try:
                parser.parse_args(op.argv)
            except SystemExit:
                pytest.fail(f"{workload.name}: {op.argv} does not parse")


def test_every_params_file_loads(written):
    """The parameter reader refuses entries it would ignore; the files the
    benchmark writes have none.  A file holding null stands for a failed op."""
    _, (warm, files) = written
    loaded = []
    for path in sorted(warm.glob("*.json")) + sorted(files.glob("*.json")):
        obj = json.loads(path.read_text())
        if obj is not None:
            DeformationParams.from_json(obj)
            loaded.append(path.parent.name)
    assert loaded.count("warmup") == 2 and "params" in loaded


def test_certify_warmups_give_their_exit_codes(tmp_path):
    """The set-up probe fails the whole certify run unless its two warm-ups,
    check --oracle on the files write_certify_warmups writes, exit 0 and 2."""
    perfbench_module("workloads").write_certify_warmups(str(tmp_path))
    setup_probe = perfbench_module("setup_probe")
    ops = setup_probe.warmup_ops("certify", str(tmp_path))
    assert [code for _, code in ops] == [0, 2]
    for argv, code in ops:
        assert setup_probe.run_quietly(cli.main, argv)[0] == code, argv


# sha256 over the exit code and stdout of check --oracle --degree 4 --format json
# on each of the 132 parameter files of the certify workload's seed 1, in order,
# so that every verdict, witness and dimension row the benchmark checks is pinned.
CERTIFY_SHA256 = "d4669e64cd65ae230ff497ed3caf020e675d0876d92ab376f9c363c493e8260c"


def test_certify_outputs_are_pinned(tmp_path, capsys):
    cases = perfbench_module("workloads").certify_params(1, 5, 2, 10)
    assert len(cases) == 132
    digest = hashlib.sha256()
    for i, (_, obj) in enumerate(cases):
        path = tmp_path / f"params_{i:03d}.json"
        path.write_text(json.dumps(obj))
        code = cli.main(["check", str(path), "--oracle", "--degree", "4", "--format", "json"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == CERTIFY_SHA256
