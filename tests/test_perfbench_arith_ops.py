"""The benchmark's arith-reg ops must exit 0 and pass the benchmark's own
checker.  ``gen``, ``workloads`` and ``check`` are loaded from ``perfbench/``
by path, as the benchmark runs them."""

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


@pytest.mark.parametrize("seed", [7, 31, 101])
@pytest.mark.parametrize("name", ["arith-reg-subspace-n16", "arith-reg-random-n16"])
def test_arith_reg_op_exits_zero_and_passes_check(name, seed, tmp_path):
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
