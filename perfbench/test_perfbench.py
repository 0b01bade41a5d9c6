"""Self-tests of the benchmark: python3 -m pytest perfbench

Generators must be reproducible per seed, the checker must reject perturbed
reports, and the self-time arithmetic must be right on a synthetic span tree.
"""

import contextlib
import copy
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPS = {op.name: op for ops in WORKLOADS.values() for op in ops}
GENERATED = [op for op in OPS.values() if op.make is not None]


@pytest.mark.parametrize("op", GENERATED, ids=lambda op: op.name)
def test_generators_reproducible_per_seed(op):
    a, pa = op.make(np.random.default_rng([7, 0, 3]))
    b, pb = op.make(np.random.default_rng([7, 0, 3]))
    c, _ = op.make(np.random.default_rng([8, 0, 3]))
    assert np.array_equal(a, b) and pa == pb
    assert not np.array_equal(a, c)


def test_planted_structure():
    f, params = gen.polynomial_code(np.random.default_rng(1), 10, 2, 3, flip=0.02)
    clean = 1.0 - 2.0 * gen.polynomial_bits(10, params["monomials"])
    assert np.mean(f != clean) == params["flips"] / 1024
    points, params = gen.planted_subspace(np.random.default_rng(2), 12, 3)
    assert len(points) == 1 << 9
    for r in params["constraints"]:
        assert not gen.popcount_parity(points.astype(np.uint64) & np.uint64(r)).any()
    g, _ = gen.sbm(np.random.default_rng(3), 64, 4, 0.7, 0.3)
    assert np.array_equal(g, g.T) and not np.diag(g).any()


def run_op(name, tmp_path, seed=5):
    """Run one workload op through the CLI; (op, input, report)."""
    from structrand.cli import main

    op = OPS[name]
    obj, _ = op.make(np.random.default_rng(seed))
    path = tmp_path / "input"
    gen.write_input(path, op.kind, obj)
    out = io.StringIO()
    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
            code = main([op.command, *op.argv, "--input", str(path), "--seed", str(seed)])
    assert code == 0
    return op, obj, json.loads(out.getvalue())


def _bump_u2(p):
    p["norms"]["U2"] += 1e-6


def _bump_coefficient(p):
    p["atoms"][0]["coefficient"] *= 1.01


def _bump_norm_psd(p):
    p["norm_psd"] += 1e-4


def _flip_monomial(p):
    p["recovered"]["polynomial"]["monomials"].append([0, 1])


def _bump_density(p):
    p["cosets"][0]["density"] += 1 / 65536


def _bump_residual(p):
    p["residual_norm"] += 1e-4


PERTURBATIONS = [
    ("gowers-u3-n8", _bump_u2),
    ("decompose-spectrum24-n16", _bump_coefficient),
    ("decompose-cuts-sbm128", _bump_norm_psd),
    ("inverse99-d2-n12", _flip_monomial),
    ("arith-reg-random-n16", _bump_density),
    ("weak-reg-exact-n12", _bump_residual),
]


@pytest.mark.parametrize("name,perturb", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS])
def test_checker_accepts_report_and_rejects_perturbed(name, perturb, tmp_path):
    op, obj, report = run_op(name, tmp_path)
    assert check.check_report(op, obj, report) == []
    bad = copy.deepcopy(report)
    perturb(bad["payload"])
    assert check.check_report(op, obj, bad)


def test_checker_recounts_irregular_witness(tmp_path):
    g, _ = gen.sbm(np.random.default_rng(1), 128, 4, 0.7, 0.3)
    parts = [list(range(i, i + 16)) for i in range(0, 128, 16)]
    rows, cols = parts[0], parts[1]
    density = float(g[np.ix_(rows, cols)].mean())
    w_rows, w_cols = rows[:8], cols[:8]
    edges = float(g[np.ix_(w_rows, w_cols)].sum())
    payload = {
        "eps": 0.01, "parts": parts, "exceptional": [], "irregular_count": 1,
        "meets_contract": False,
        "pairs": {"0,1": {"density": density, "status": "irregular", "witness": {
            "rows": w_rows, "cols": w_cols, "edges": edges}}},
    }
    op = OPS["graph-reg-exact-sbm128"]
    report = {"command": "graph-reg", "payload": payload}
    if abs(edges - density * 64) <= 0.01 * 64:
        pytest.skip("the sampled block happens to be regular")
    assert check.check_report(op, g, report) == []
    payload["pairs"]["0,1"]["witness"]["edges"] = edges + 1
    assert check.check_report(op, g, report)


def test_gowers_power_matches_definition():
    rng = np.random.default_rng(0)
    f = rng.uniform(-1, 1, 16)
    x = np.arange(16)
    for d in (2, 3):
        total = 0.0
        for h in np.ndindex(*([16] * d)):
            prod = np.ones(16)
            for vertex in range(1 << d):
                shift = 0
                for j in range(d):
                    if (vertex >> j) & 1:
                        shift ^= h[j]
                prod = prod * f[x ^ shift]
            total += prod.mean()
        assert check.gowers_power(f, d) == pytest.approx(total / 16**d, abs=1e-12)


def test_self_time_on_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["c", 3.5, 4.5, 0, 0],  # overlaps a: covered once, not twice
        ["d", 9.5, 11.0, 0, 0],  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.0, 1.5])
    assert spans.self_time_by_name(tree + [["a", 20.0, 21.0, -1, 1]])["a"] == pytest.approx(3.0)


def test_install_reaches_every_binding_and_uninstall_restores():
    import structrand.cli as cli
    import structrand.cube as cube
    import structrand.gowers as gowers

    original = cube.walsh_hadamard
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert cube.walsh_hadamard is not original
        assert gowers.walsh_hadamard is cube.walsh_hadamard is cli.walsh_hadamard
        cli.gowers_norm_u2_fft(np.ones(8))
    finally:
        spans.uninstall(undo)
    assert cube.walsh_hadamard is original and gowers.walsh_hadamard is original
    names = [s[0] for s in tracer.spans]
    assert names == ["gowers.u2_fft", "cube.wht"]
    assert tracer.spans[1][3] == 0  # the transform's parent is the U^2 span
    assert tracer.counts["cube.wht.points"] == 8
