"""Acceptance suite: every contract at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; any failure shows up as an ordinary pytest failure.
"""

import math
import time

import numpy as np
import pytest

import structrand as sr
from structrand import (
    CutAtomSet,
    F2Polynomial,
    Factor,
    FactorFamily,
    FiniteProbabilitySpace,
    GrowthFunction,
    character_atoms,
    conditional_expectation,
    dual_function,
    dyadic_interval_family,
    gnp_random_graph,
    gowers_norm,
    gowers_norm_batch,
    gowers_norm_u2_fft,
    gvn_defect,
    inner_product,
    inverse_99,
    inverse_100,
    level_set_factor,
    norm,
    orthogonal_weak_decompose,
    projection_norm,
    reed_muller_atoms,
    rigidity_gap,
    sparse_decompose,
    strong_decompose,
    strong_factor_decompose,
    szemeredi_regularize,
    weak_decompose,
    weak_regularize,
)
from structrand.arithreg import arithmetic_regularize, coset_ids
from structrand.cube import f2_matrix_rank, f2_rank

from oracles import naive_coset_bias


def report(number, label, detail=""):
    print(f"ACCEPTANCE {number:2d} PASS: {label}" + (f" ({detail})" if detail else ""))


def random_pm1(rng, size):
    return np.where(rng.random(size) < 0.5, -1.0, 1.0)


def test_01_fourier_identity():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n in (4, 6, 8, 10):
        for _ in range(50):
            f = rng.uniform(-1.0, 1.0, 1 << n)
            gap = abs(gowers_norm(f, 2) - gowers_norm_u2_fft(f))
            worst = max(worst, gap)
            assert gap <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(1, "U^2 equals the transform formula on 200 random functions",
           f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_02_monotonicity_chain():
    started = time.monotonic()
    rng = np.random.default_rng(1002)
    for i in range(100):
        n = (4, 5, 6)[i % 3]
        f = rng.uniform(-1.0, 1.0, 1 << n)
        u1, u2, u3 = (gowers_norm(f, d) for d in (1, 2, 3))
        assert u1 <= u2 + 1e-9
        assert u2 <= u3 + 1e-9
        assert u3 <= np.abs(f).max() + 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(2, "U^1 <= U^2 <= U^3 <= sup norm on 100 random functions",
           f"{elapsed:.1f}s")


def test_03_modulation_symmetry():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for d in (2, 3):
        atoms = reed_muller_atoms(4, d - 1)
        codes = atoms.matrix
        for _ in range(20):
            f = rng.uniform(-1.0, 1.0, 16)
            base = gowers_norm(f, d)
            modulated = gowers_norm_batch(codes * f[None, :], d)
            gap = float(np.abs(modulated - base).max())
            worst = max(worst, gap)
            assert gap <= 1e-9
        # spot check the batch path against the scalar evaluator
        sample = codes[:: max(1, len(atoms) // 8)] * f[None, :]
        singles = np.array([gowers_norm(row, d) for row in sample])
        assert np.abs(gowers_norm_batch(sample, d) - singles).max() <= 1e-12
    report(3, "multiplying by any low-degree code preserves U^d",
           f"worst gap {worst:.2e}")


def test_04_duality():
    rng = np.random.default_rng(1004)
    for d in (2, 3):
        for _ in range(25):
            f = rng.uniform(-1.0, 1.0, 16)
            lhs = inner_product(f, dual_function(f, d))
            rhs = gowers_norm(f, d) ** (1 << d)
            assert abs(lhs - rhs) <= 1e-9
    report(4, "<f, Df> equals U^d to the 2^d on 50 random functions")


def test_05_generalized_von_neumann():
    rng = np.random.default_rng(1005)
    n = 5
    count = 0
    while count < 1000:
        t1 = rng.integers(0, 2, (n, n))
        t2 = rng.integers(0, 2, (n, n))
        if (
            f2_matrix_rank(t1) < n
            or f2_matrix_rank(t2) < n
            or f2_matrix_rank(t1 ^ t2) < n
        ):
            continue
        f = rng.uniform(-1.0, 1.0, 32)
        g = rng.uniform(-1.0, 1.0, 32)
        h = rng.uniform(-1.0, 1.0, 32)
        lhs, bound = gvn_defect(f, g, h, t1, t2)
        assert lhs <= bound + 1e-9
        count += 1
    report(5, "trilinear form bounded by U^2 on 1000 seeded instances")


def test_06_greedy_split_contract():
    rng = np.random.default_rng(1006)
    atoms = character_atoms(6)
    for eps in (0.5, 0.25, 0.1):
        budget = math.floor(1 / eps**2 + 1e-9)
        for _ in range(34):
            f = rng.standard_normal(64)
            f /= norm(f)
            dec = weak_decompose(f, atoms, eps)
            assert dec.iterations <= budget
            assert atoms.scan(dec.f_psd).lower < eps
            assert norm(f - dec.reconstruct()) <= 1e-10
    report(6, "greedy split: <= 1/eps^2 steps, eps-flat rest, exact rebuild")


def test_07_orthogonal_weak_structure():
    rng = np.random.default_rng(1007)
    atoms = character_atoms(6)
    for eps in (0.5, 0.25, 0.1):
        budget = math.floor(1 / eps**2 + 1e-9)
        for _ in range(34):
            f = rng.standard_normal(64)
            f /= norm(f)
            dec = orthogonal_weak_decompose(f, atoms, eps)
            assert dec.iterations <= budget
            assert atoms.scan(dec.f_psd).lower < eps
            assert abs(inner_product(dec.f_str, dec.f_psd)) <= 1e-10
            assert (
                abs(norm(f) ** 2 - norm(dec.f_str) ** 2 - norm(dec.f_psd) ** 2)
                <= 1e-10
            )
    report(7, "projection split adds orthogonality and Pythagoras")


def test_08_strong_structure_both_settings():
    rng = np.random.default_rng(1008)
    atoms = character_atoms(6)
    growth = GrowthFunction.exponential(2)
    for _ in range(25):
        eps = float(rng.choice([0.4, 0.5]))
        f = rng.standard_normal(64)
        f /= norm(f)
        dec = strong_decompose(f, atoms, eps, growth)
        assert len(dec.stages) <= math.floor(1 / eps**2 + 1e-9) + 1
        assert norm(dec.f_err) <= eps + 1e-9
        scan = atoms.scan(dec.f_psd)
        assert scan.exact
        assert scan.lower <= 1.0 / growth(dec.growth_m) + 1e-9

    space = FiniteProbabilitySpace.uniform(128)
    fgrowth = GrowthFunction.linear(2, offset=1)
    for trial in range(25):
        frng = np.random.default_rng(2000 + trial)
        family = FactorFamily(
            [Factor(frng.integers(0, 2, 128)) for _ in range(10)]
        )
        f = frng.standard_normal(128)
        f /= space.l2(f)
        eps = 0.4
        dec = strong_factor_decompose(space, f, family, eps, fgrowth)
        assert dec.stage_index <= math.floor(1 / eps**2 + 1e-9) + 1
        assert space.l2(dec.f_err) <= eps + 1e-9
        worst = max(projection_norm(space, dec.f_psd, y) for y in family.members)
        assert worst <= 1.0 / fgrowth(dec.growth_m) + 1e-9
    report(8, "staged split: pigeonhole stage bound, small error, 1/F(M) rest",
           "25 inner-product + 25 factor instances")


def test_09_inverse_100_roundtrip():
    started = time.monotonic()
    atoms = reed_muller_atoms(4, 2)
    for i in range(len(atoms)):
        poly = atoms.polynomial(i)
        recovered = inverse_100(atoms.atom_vector(i), 3)
        assert recovered == poly
    lin = reed_muller_atoms(6, 1)
    for i in range(len(lin)):
        poly = lin.polynomial(i)
        recovered = inverse_100(lin.atom_vector(i), 2)
        assert recovered == poly
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(9, "every enumerated code round-trips through exact recovery",
           f"{len(atoms)} quadratic + {len(lin)} linear codes, {elapsed:.1f}s")


def test_10_inverse_99_plant_and_recover():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        monos = [(int(a),) for a in rng.choice(10, 3, replace=False)]
        poly = F2Polynomial.from_monomials(10, monos)
        code = poly.code()
        noisy = code * np.where(rng.random(1 << 10) < 0.01, -1.0, 1.0)
        rec = inverse_99(noisy, 2, 0.1)
        if (
            rec is not None
            and rec.correlation >= 0.95
            and np.array_equal(rec.sign * rec.poly.code(), code)
        ):
            hits += 1
    assert hits >= 19

    hits3 = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        pairs = rng.choice(8, (2, 2), replace=False)
        monos = [tuple(sorted(int(v) for v in p)) for p in pairs]
        poly = F2Polynomial.from_monomials(8, monos)
        code = poly.code()
        noisy = code * np.where(rng.random(1 << 8) < 0.005, -1.0, 1.0)
        rec = inverse_99(noisy, 3, 1.0 / 16.0)
        if (
            rec is not None
            and rec.correlation >= 0.95
            and np.array_equal(rec.sign * rec.poly.code(), code)
        ):
            hits3 += 1
    assert hits3 >= 19
    report(10, "noisy planted codes recovered",
           f"linear {hits}/20, quadratic {hits3}/20")


def test_11_rigidity_gap():
    gap, runner_mean, runner = rigidity_gap(4, 2)
    assert runner_mean < 1.0
    atoms = reed_muller_atoms(4, 2)
    means = atoms.matrix.mean(axis=1)
    for i in range(len(atoms)):
        if means[i] > 1.0 - gap + 1e-12:
            assert atoms.polynomial(i).monomials == ()
    assert gap == pytest.approx(0.5)
    report(11, "only the all-ones code has mean above the enumerated gap",
           f"gap {gap}, runner-up {runner}")


def test_12_arithmetic_regularity():
    started = time.monotonic()
    for seed in range(10):
        rng = np.random.default_rng(5000 + seed)
        f = (rng.random(1 << 10) < 0.5).astype(float)
        rep = arithmetic_regularize(f, 10, 0.25)
        assert rep.success
        assert rep.irregular_count <= 0.25 * 2**rep.codimension + 1e-9
        ids = coset_ids(10, rep.constraints)
        for cid, entry in enumerate(rep.entries):
            if not entry.regular:
                continue
            members = [int(x) for x in np.flatnonzero(ids == cid)]
            assert naive_coset_bias(f, members, entry.density) <= 0.25 + 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(12, "random sets are flat on almost all subspace translates",
           f"10 seeds, oracle-verified, {elapsed:.1f}s")


def test_13_szemeredi_regularity():
    for seed in range(5):
        rng = np.random.default_rng(6000 + seed)
        g = gnp_random_graph(128, 0.5, rng)
        part = szemeredi_regularize(g, 0.25, 4, mode="sampled", seed=seed)
        sizes = {len(p) for p in part.parts}
        assert len(sizes) == 1
        covered = set(part.exceptional)
        for p in part.parts:
            assert not covered & set(p)
            covered |= set(p)
        assert covered == set(range(128))
        assert part.num_parts >= 4
        assert part.irregular_count <= 0.25 * part.num_parts**2

    for seed in range(5):
        rng = np.random.default_rng(7000 + seed)
        g = gnp_random_graph(24, 0.5, rng)
        part = szemeredi_regularize(g, 0.5, 2, mode="exact", seed=seed)
        assert all(len(p) <= 16 for p in part.parts)
        assert all(rec.mode == "exact" for rec in part.pair_records.values())
        frac = part.irregular_count / max(len(part.pair_records), 1)
        assert frac <= 0.5
    report(13, "equitable partitions with mostly regular pairs",
           "5 sampled G(128) + 5 exact G(24) seeds")


def test_14_weak_regularity():
    rng = np.random.default_rng(1014)
    g = gnp_random_graph(64, 0.5, rng)
    atoms, residual, scan = weak_regularize(g, 0.25, seed=14)
    assert len(atoms) <= 16
    assert scan.lower < 0.25
    for seed in range(3):
        small_rng = np.random.default_rng(8000 + seed)
        g12 = gnp_random_graph(12, 0.5, small_rng)
        _, residual12, scan12 = weak_regularize(g12, 0.25, seed=seed)
        assert scan12.exact
        assert scan12.lower < 0.25
        check = CutAtomSet(12).scan(residual12)
        assert check.lower < 0.25
    report(14, "cut decomposition: <= 16 atoms, residual flat",
           "exhaustive certificates at n=12")


def test_15_sparse_majorant_model():
    n_points = 1 << 12
    log_n = math.log(n_points)
    space = FiniteProbabilitySpace.uniform(n_points)
    family = dyadic_interval_family(n_points, n_points // 4)
    growth = GrowthFunction.linear(2, offset=1)
    eta = 0.2
    worst_linf = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        majorant_set = rng.random(n_points) < 1.0 / log_n
        subset = majorant_set & (rng.random(n_points) < 0.5)
        nu = log_n * majorant_set.astype(float)
        f = log_n * subset.astype(float)
        dec = sparse_decompose(space, f, nu, family, 0.3, growth, eta=eta)
        assert dec.f_str.min() >= -1e-9
        assert dec.f_str.max() <= 1.0 + eta + 1e-9
        assert abs(space.integral(dec.f_str) - space.integral(f)) <= 1e-12
        worst_linf = max(worst_linf, dec.majorant_linf)
    report(15, "majorant-dominated split stays in [0, 1 + eta], mean kept",
           f"10 seeds, worst majorant linf {worst_linf:.4f}")


def test_16_level_set_projection_bound():
    rng = np.random.default_rng(1016)
    space = FiniteProbabilitySpace.uniform(256)
    alphas = [round(0.1 * k, 1) for k in range(10)]
    violations = 0
    for _ in range(1000):
        f = rng.standard_normal(256)
        g = rng.standard_normal(256)
        f /= space.l1(f)
        g /= space.l2(g)
        corr = abs(space.inner(f, g))
        for eps in (0.05, 0.1, 0.2):
            for alpha in alphas:
                factor = level_set_factor(g, eps, alpha)
                lhs = space.l2(conditional_expectation(space, f, factor))
                if lhs < corr - eps - 1e-12:
                    violations += 1
    assert violations == 0
    report(16, "level-set projection keeps correlation up to eps",
           "30000 checks, zero violations")


def planted_subspace(rng, n, codim):
    """Indicator of the kernel of ``codim`` random independent constraints."""
    rows = []
    while len(rows) < codim:
        r = int(rng.integers(1, 1 << n))
        if f2_rank(rows + [r]) > len(rows):
            rows.append(r)
    x = np.arange(1 << n)
    inside = np.ones(1 << n, dtype=bool)
    for r in rows:
        inside &= np.array([bin(v).count("1") % 2 == 0 for v in x & r])
    return inside, rows


def check_recovered(f, n, eps, rows):
    """The report cuts out exactly the planted subspace, and every coset's
    witness character, recounted on the coset, gives its bias."""
    rep = arithmetic_regularize(f, n, eps)
    assert rep.success and rep.irregular_count == 0
    assert rep.codimension == len(rows)
    assert f2_rank(rep.constraints + rows) == len(rows)
    ids = coset_ids(n, rep.constraints)
    for cid, entry in enumerate(rep.entries):
        members = ids == cid
        signs = 1.0 - 2.0 * np.array([bin(x & entry.witness).count("1") % 2 for x in range(1 << n)])
        recount = abs(np.mean((f[members] - entry.density) * signs[members]))
        assert recount == pytest.approx(entry.max_bias, abs=1e-12)
        assert entry.max_bias <= eps
    gains = np.diff([r["index_energy"] for r in rep.rounds])
    assert np.all(gains > eps**3)
    return rep


def test_17_planted_subspace():
    started = time.monotonic()
    for seed in range(3):
        inside, rows = planted_subspace(np.random.default_rng(1700 + seed), 16, 3)
        rep = check_recovered(inside.astype(float), 16, 0.1, rows)
        assert [r["index_energy"] for r in rep.rounds] == [1 / 64, 1 / 32, 1 / 16, 1 / 8]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(17, "a planted codim-3 subspace is cut out exactly at n = 16",
           f"3 seeds, 4 rounds each, {elapsed:.1f}s")


def test_18_noisy_planted_subspace():
    started = time.monotonic()
    for seed in range(3):
        rng = np.random.default_rng(1800 + seed)
        inside, rows = planted_subspace(rng, 16, 2)
        flips = rng.choice(1 << 16, size=(1 << 16) // 20, replace=False)
        inside[flips] = ~inside[flips]
        check_recovered(inside.astype(float), 16, 0.1, rows)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(18, "a codim-2 subspace with 5% of the cube flipped is cut out at n = 16",
           f"3 seeds, {elapsed:.1f}s")
