"""The benchmark's ops that exit 0 must keep doing so and pass the
benchmark's own checker: both arith-reg ops, and five of the seven
graph-regularity ops.  ``graph-reg-alt-sbm256`` and ``graph-reg-exact-sbm128``
are left out: they exit 3, because on a shuffled block model the partition's
parts are index chunks and those modes find more irregular pairs than
eps * m'^2 allows (ROADMAP item 1).  ``gen``, ``workloads`` and ``check`` are loaded from
``perfbench/`` by path, as the benchmark runs them."""

import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from structrand.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """A perfbench module, under the bare name its siblings import it by."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


gen, workloads, check = load("gen"), load("workloads"), load("check")
OPS = {op.name: op for ops in workloads.WORKLOADS.values() for op in ops}


PASSING = [
    "arith-reg-subspace-n16",
    "arith-reg-random-n16",
    "graph-reg-gnp128",
    "graph-reg-sbm256",
    "weak-reg-sbm256",
    "weak-reg-exact-n12",
    "decompose-cuts-sbm128",
]


@pytest.mark.parametrize("seed", [7, 31, 101])
@pytest.mark.parametrize("name", PASSING)
def test_op_exits_zero_and_passes_check(name, seed, tmp_path):
    op = OPS[name]
    obj, _ = op.make(np.random.default_rng(seed))
    path = tmp_path / "input"
    gen.write_input(path, op.kind, obj)
    out = io.StringIO()
    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
            code = main([op.command, *op.argv, "--input", str(path), "--seed", str(seed)])
    assert code == 0
    assert check.check_report(op, obj, json.loads(out.getvalue())) == []
