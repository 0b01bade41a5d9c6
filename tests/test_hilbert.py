import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrand import (
    BudgetExceededError,
    CertificateError,
    CharacterAtomSet,
    CorrelationScan,
    CutAtomSet,
    DenseAtomSet,
    Factor,
    FactorFamily,
    FiniteProbabilitySpace,
    GrowthFunction,
    PreconditionError,
    character,
    character_atoms,
    conditional_expectation,
    dyadic_interval_family,
    inner_product,
    norm,
    orthogonal_weak_decompose,
    reed_muller_atoms,
    strong_decompose,
    strong_factor_decompose,
    weak_decompose,
)

from oracles import naive_inner, naive_ranked_candidates, naive_staged_split


def normalized(rng, size):
    f = rng.standard_normal(size)
    return f / norm(f)


class TestInnerProduct:
    def test_constant_one(self):
        f = np.ones(10)
        assert inner_product(f, f) == 1.0

    def test_character_orthogonality(self):
        assert abs(inner_product(character(4, 3), character(4, 9))) == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = rng.uniform(-1, 1, 16)
            g = rng.uniform(-1, 1, 16)
            assert abs(inner_product(f, g) - naive_inner(f, g)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            inner_product(np.ones(4), np.ones(8))

    def test_norm_zero_iff_zero(self):
        assert norm(np.zeros(8)) == 0.0
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.standard_normal(8)
            if np.any(f != 0):
                assert norm(f) > 0

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = rng.standard_normal(16)
            g = rng.standard_normal(16)
            assert abs(inner_product(f, g)) <= norm(f) * norm(g) + 1e-9


class TestEnergyDecrementStep:
    """The greedy step inside weak_decompose: best atom, weight <f, v>/||v||^2."""

    def test_scaled_atom(self):
        f = 0.3 * character(4, 5)
        dec = weak_decompose(f, character_atoms(4), 0.2)
        key, c = dec.atoms[0]
        assert key == 5
        assert c == pytest.approx(0.3, abs=1e-12)
        assert dec.trace[0]["energy"] <= 1e-15

    def test_none_when_pseudorandom(self):
        rng = np.random.default_rng(3)
        f = normalized(rng, 64)
        atoms = character_atoms(6)
        level = atoms.scan(f).lower
        assert weak_decompose(f, atoms, min(1.0, level * 2)).atoms == []

    def test_energy_decrement_bound(self):
        rng = np.random.default_rng(4)
        atoms = character_atoms(6)
        for _ in range(20):
            f = normalized(rng, 64)
            dec = weak_decompose(f, atoms, 0.1)
            energies = [inner_product(f, f)] + [rec["energy"] for rec in dec.trace]
            for before, after in zip(energies, energies[1:]):
                assert after <= before - 0.01 + 1e-9
            assert all(abs(c) <= 10 + 1e-9 for _, c in dec.atoms)

    def test_rejects_bad_eps_and_norm(self):
        atoms = character_atoms(3)
        with pytest.raises(PreconditionError):
            weak_decompose(np.ones(8), atoms, 0.0)
        with pytest.raises(PreconditionError):
            weak_decompose(np.ones(8) * 3.0, atoms, 0.5)


class TestWeakDecompose:
    def test_eps_one_no_iterations(self):
        rng = np.random.default_rng(5)
        f = 0.9 * normalized(rng, 32)
        dec = weak_decompose(f, character_atoms(5), 1.0)
        assert dec.iterations == 0
        assert np.array_equal(dec.f_psd, f)
        assert norm(dec.f_str) == 0.0

    def test_single_character(self):
        f = character(4, 6).astype(float)
        dec = weak_decompose(f, character_atoms(4), 0.5)
        assert dec.iterations == 1
        assert norm(dec.f_psd) <= 1e-12
        assert norm(dec.f_str - f) <= 1e-12

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_random_corpus(self, eps):
        rng = np.random.default_rng(6)
        atoms = character_atoms(6)
        for _ in range(10):
            f = normalized(rng, 64)
            dec = weak_decompose(f, atoms, eps)
            assert dec.iterations <= math.floor(1 / eps**2 + 1e-9)
            assert atoms.scan(dec.f_psd).lower < eps
            assert norm(f - dec.reconstruct()) <= 1e-10
            assert np.array_equal(dec.f_str, f - dec.f_psd)
            dec.verify(f, atoms)

    def test_energy_monotone(self):
        rng = np.random.default_rng(7)
        f = normalized(rng, 64)
        dec = weak_decompose(f, character_atoms(6), 0.2)
        energies = [rec["energy"] for rec in dec.trace]
        for before, after in zip([inner_product(f, f)] + energies, energies):
            assert after <= before - 0.04 + 1e-9


class TestOrthogonalWeakDecompose:
    def test_already_pseudorandom(self):
        rng = np.random.default_rng(8)
        f = normalized(rng, 64)
        atoms = character_atoms(6)
        level = atoms.scan(f).lower
        dec = orthogonal_weak_decompose(f, atoms, min(1.0, level * 1.5))
        assert dec.iterations == 0
        assert norm(dec.f_str) == 0.0

    def test_two_orthogonal_atoms(self):
        f = 0.6 * character(4, 1) + 0.6 * character(4, 2)
        dec = orthogonal_weak_decompose(f, character_atoms(4), 0.5)
        assert dec.iterations == 2
        assert norm(dec.f_str - f) <= 1e-12
        assert abs(inner_product(dec.f_str, dec.f_psd)) <= 1e-12

    def test_pythagoras(self):
        rng = np.random.default_rng(9)
        atoms = character_atoms(6)
        for _ in range(10):
            f = normalized(rng, 64)
            dec = orthogonal_weak_decompose(f, atoms, 0.3)
            assert abs(inner_product(dec.f_str, dec.f_psd)) <= 1e-10
            assert abs(
                norm(f) ** 2 - norm(dec.f_str) ** 2 - norm(dec.f_psd) ** 2
            ) <= 1e-10
            dec.verify(f, atoms)

    def test_peak_memory(self):
        # k selected atoms take k basis rows of N floats (up to 2k while the
        # capacity doubles), beside f, f_psd, the stage target and scan scratch
        n, k = 14, 16
        rng = np.random.default_rng(13)
        keys = rng.choice(1 << n, k, replace=False)
        f = sum((0.9 - 0.02 * i) * character(n, int(xi)) for i, xi in enumerate(keys))
        f = f / norm(f)
        atoms = character_atoms(n)
        tracemalloc.start()
        try:
            dec = orthogonal_weak_decompose(f, atoms, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(key for key, _ in dec.atoms) == sorted(keys.tolist())
        assert peak < (2 * k + 8) * f.nbytes


class TestStrongDecompose:
    def test_single_atom_input(self):
        f = character(4, 9).astype(float)
        atoms = character_atoms(4)
        dec = strong_decompose(f, atoms, 0.5, GrowthFunction.linear(2))
        assert norm(dec.f_err) == 0.0
        assert dec.pseudo_found <= dec.pseudorandomness_eps
        assert dec.pseudorandomness_eps <= 1.0 / (2 * dec.growth_m)
        dec.verify(f, atoms)

    def test_stage_bound_and_certificates(self):
        rng = np.random.default_rng(10)
        atoms = character_atoms(6)
        for eps in (0.4, 0.6):
            for _ in range(5):
                f = normalized(rng, 64)
                dec = strong_decompose(f, atoms, eps, GrowthFunction.exponential(2))
                assert len(dec.stages) <= math.floor(1 / eps**2 + 1e-9) + 1
                assert norm(dec.f_err) <= eps + 1e-9
                assert dec.pseudo_found < dec.pseudorandomness_eps
                assert norm(f - dec.reconstruct()) <= 1e-10
                dec.verify(f, atoms)

    def test_growth_violation_raises(self):
        with pytest.raises(PreconditionError):
            GrowthFunction("bad", lambda m: m)(3)

    def test_fully_structured_terminates_past_cap(self):
        # needs structure only on early stages; later thresholds sail past the
        # cap but terminate because the residual is already zero
        f = 0.5 * character(4, 3) + 0.25 * character(4, 8)
        atoms = character_atoms(4)
        dec = strong_decompose(
            f, atoms, 0.3, GrowthFunction.exponential(4), complexity_cap=100
        )
        assert norm(dec.f_psd) <= 1e-12
        dec.verify(f, atoms)


def hilbert_stages(f, eps, cap):
    # M runs 2, 4, 8, ...
    dec = strong_decompose(
        f, character_atoms(4), eps, GrowthFunction.linear(2), complexity_cap=cap
    )
    return dec.stages


def factor_stages(f, eps, cap):
    # M runs 9, 361, ...
    space = FiniteProbabilitySpace.uniform(16)
    dec = strong_factor_decompose(
        space,
        f,
        dyadic_interval_family(16, 4),
        eps,
        GrowthFunction.linear(2, offset=1),
        complexity_cap=cap,
    )
    return dec.stages


# Each split with an input that stage 1 explains fully, and a cap that the
# first stage's M stays within while the second stage's M exceeds it.
STRONG_SPLITS = [
    pytest.param(hilbert_stages, 0.5 * character(4, 3), 3, id="hilbert"),
    pytest.param(factor_stages, np.repeat([1.0, 0.0], 8), 100, id="factors"),
]


@pytest.mark.parametrize("stages_of, f, cap", STRONG_SPLITS)
class TestStagedContract:
    def test_structure_past_cap_raises(self, stages_of, f, cap):
        with pytest.raises(BudgetExceededError):
            stages_of(f, 0.3, 1)

    def test_explained_input_terminates_past_cap(self, stages_of, f, cap):
        stages = stages_of(f, 0.3, cap)
        assert len(stages) == 2
        assert stages[0]["M"] <= cap < stages[1]["M"]

    def test_stage_bound(self, stages_of, f, cap):
        rng = np.random.default_rng(21)
        for eps in (0.3, 0.5, 0.8):
            for _ in range(5):
                g = rng.uniform(-1.0, 1.0, 16)
                assert len(stages_of(g, eps, 10**6)) <= math.floor(1 / eps**2) + 1

    @pytest.mark.parametrize("eps", [0.0, -0.1, 2.0])
    def test_eps_outside_unit_interval_refused(self, stages_of, f, cap, eps):
        with pytest.raises(PreconditionError, match=r"\(0, 1\]"):
            stages_of(f, eps, cap)


def unit_rows(rng, count, size):
    """``count`` random atoms of norm exactly 1, in general position."""
    mat = rng.uniform(-1.0, 1.0, (count, size))
    return mat / np.sqrt((mat**2).mean(axis=1, keepdims=True))


SEEDS = st.integers(0, 2**32 - 1)
SPLITS = ["orthogonal", "strong-characters", "strong-dense"]


class TestCertificates:
    """verify() passes on every split and fails once f_psd gains an atom, or
    a stock member, at twice the certified level; f is shifted with f_psd so
    that only the pseudorandomness claim breaks."""

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, eps=st.sampled_from([0.2, 0.3, 0.5]), split=st.sampled_from(SPLITS))
    def test_atom_splits(self, seed, eps, split):
        rng = np.random.default_rng(seed)
        if split == "strong-dense":
            atoms = DenseAtomSet(unit_rows(rng, 12, 16))
        else:
            atoms = character_atoms(5)
        planted = sum(rng.uniform(-1, 1) * atoms.atom_vector(k) for k in rng.integers(0, 12, 3))
        f = normalized(rng, atoms.atom_vector(0).size) + planted
        f = f / norm(f)
        if split == "orthogonal":
            dec = orthogonal_weak_decompose(f, atoms, eps)
        else:
            dec = strong_decompose(f, atoms, eps, GrowthFunction.linear(2))
        dec.verify(f, atoms)
        v = atoms.atom_vector(atoms.scan(dec.f_psd).witness)
        sign = 1.0 if inner_product(dec.f_psd, v) >= 0 else -1.0
        delta = sign * 2 * dec.pseudorandomness_eps * v / inner_product(v, v)
        dec.f_psd = dec.f_psd + delta
        with pytest.raises(CertificateError, match="correlates at"):
            dec.verify(f + delta, atoms)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, eps=st.sampled_from([0.5, 0.6, 0.8]))
    def test_factor_split(self, seed, eps):
        rng = np.random.default_rng(seed)
        space = FiniteProbabilitySpace.uniform(64)
        family = FactorFamily([Factor(rng.integers(0, 2, 64)) for _ in range(8)])
        f = rng.standard_normal(64) + 2.0 * (family[0].labels - 0.5)
        f /= space.l2(f)
        dec = strong_factor_decompose(space, f, family, eps, GrowthFunction.linear(2, offset=1))
        dec.verify(space, f, family)
        # (-1)^labels of a member, less its part the factor already sees, is
        # invisible to E(. | factor) but not to the member
        shifts = []
        for member in family.members:
            g = 1.0 - 2.0 * member.labels
            delta = g - conditional_expectation(space, g, dec.factor)
            seen = conditional_expectation(space, delta, member)
            shifts.append((space.l2(seen), member, delta, seen))
        size, member, delta, seen = max(shifts, key=lambda shift: shift[0])
        if size <= 1e-6:  # the factor refines every member
            return
        aligned = space.inner(conditional_expectation(space, dec.f_psd, member), seen) >= 0
        delta = (1.0 if aligned else -1.0) * 2 * dec.pseudorandomness_eps * delta / size
        dec.f_psd = dec.f_psd + delta
        with pytest.raises(CertificateError, match="projects at"):
            dec.verify(space, f + delta, family)


def near_parallel_pairs(rng, size, distances):
    """Unit atoms in pairs (a, b) with b at ``distance`` from a, in between
    normalized, and f = a random combination of them plus 0.1 of noise
    orthogonal to them all, scaled to norm 1/2."""
    rows = []
    for distance in distances:
        a, e = unit_rows(rng, 2, size)
        e = e - inner_product(e, a) * a
        rows += [a, a + distance * e / norm(e)]
    mat = np.array(rows)
    mat /= np.sqrt((mat**2).mean(axis=1, keepdims=True))
    noise = rng.standard_normal(size)
    noise -= mat.T @ np.linalg.lstsq(mat.T, noise, rcond=None)[0]
    f = mat.T @ rng.uniform(-1, 1, len(mat))
    f = f + 0.1 * norm(f) * noise / norm(noise)
    return mat, f / (2 * norm(f))


@pytest.mark.parametrize("split", ["orthogonal", "strong"])
def test_coefficients_on_near_parallel_atoms(split):
    # every atom joins the split, at a threshold of 1e-11 (one stage for the
    # strong split); the Gram system's condition number would reach 1e10
    for seed in range(5):
        mat, f = near_parallel_pairs(np.random.default_rng(seed), 64, [1e-2, 1e-3, 1e-4, 1e-5])
        atoms = DenseAtomSet(mat)
        if split == "orthogonal":
            dec = orthogonal_weak_decompose(f, atoms, 1e-11)
        else:
            growth = GrowthFunction.linear(1e11)
            dec = strong_decompose(f, atoms, 0.3, growth, complexity_cap=10**11)
            assert [s["atoms"] for s in dec.stages] == [len(mat), 0]
        assert sorted(key for key, _ in dec.atoms) == list(range(len(mat)))
        combo = sum(c * mat[key] for key, c in dec.atoms)
        assert np.abs(dec.f_str - combo).max() <= 1e-12
        dec.verify(f, atoms)


def test_stages_match_plain_loop_oracle():
    # seeded so that four stages build, the last re-selects atoms an earlier
    # stage used, and every pick leads the runner-up correlation by > 0.02
    rng = np.random.default_rng(15)
    mat = unit_rows(rng, 10, 32)
    f = mat[:4].T @ np.array([0.6, -0.35, 0.2, 0.12]) + 0.05 * rng.standard_normal(32)
    f /= norm(f)
    expected = naive_staged_split(mat, f, 0.2, lambda m: 2 * m)
    assert sum(1 for stage in expected if stage["atoms"]) >= 2
    assert min(stage["gap"] for stage in expected) > 1e-6
    dec = strong_decompose(f, DenseAtomSet(mat), 0.2, GrowthFunction.linear(2))
    assert [s["atoms"] for s in dec.stages] == [len(stage["atoms"]) for stage in expected]
    for got, stage in zip(dec.stages, expected):
        assert got["energy_drop"] == pytest.approx(stage["energy_drop"], abs=1e-9)
    kept = expected[:-1]
    assert [k for k, _ in dec.atoms] == [k for stage in kept for k in stage["atoms"]]
    coefficients = [c for stage in kept for c in stage["coefficients"]]
    assert np.allclose([c for _, c in dec.atoms], coefficients, rtol=0, atol=1e-9)
    last = expected[-1]
    assert [rec["atom"] for rec in dec.trace] == last["atoms"]
    f_err = sum(c * mat[k] for k, c in zip(last["atoms"], last["coefficients"]))
    assert norm(dec.f_err - f_err) <= 1e-9


class TestGrowthFunction:
    def test_presets(self):
        assert GrowthFunction.linear(3)(2) == 6
        assert GrowthFunction.exponential(2)(5) == 32
        arith = GrowthFunction.arithmetic_regularity(0.25)
        assert arith(1) == pytest.approx(0.25**-0.25 * 2)


class TestDenseAtomSet:
    def test_rejects_long_atoms(self):
        with pytest.raises(PreconditionError):
            DenseAtomSet(2.0 * np.eye(4) * 2)

    def test_scan_matches_manual(self):
        rng = np.random.default_rng(11)
        mat = rng.uniform(-1, 1, (10, 16))
        mat /= np.sqrt((mat**2).mean(axis=1, keepdims=True)) + 1.0
        atoms = DenseAtomSet(mat)
        f = rng.uniform(-1, 1, 16)
        scan = atoms.scan(f)
        manual = max(abs(naive_inner(row, f)) for row in mat)
        assert scan.lower == pytest.approx(manual, abs=1e-12)
        assert scan.exact


def run_split(split, f, atoms, eps):
    if split == "weak":
        return weak_decompose(f, atoms, eps)
    if split == "orthogonal":
        return orthogonal_weak_decompose(f, atoms, eps)
    return strong_decompose(f, atoms, eps, GrowthFunction.linear(2))


class TestOneScanPerResidual:
    """Every split scans each residual it reaches once, and the scan that
    ends it is its pseudorandomness certificate."""

    @pytest.mark.parametrize("split", ["strong", "orthogonal", "weak"])
    def test_scan_count(self, split, monkeypatch):
        # a sparse spectrum at four levels, so the strong split runs several stages
        f = sum(c * character(6, xi) for c, xi in [(0.7, 3), (0.45, 17), (0.3, 40), (0.1, 9)])
        f = f / norm(f)
        # each search is one transform, whichever method runs it
        calls = []
        table = CharacterAtomSet.correlations
        monkeypatch.setattr(
            CharacterAtomSet, "correlations", lambda self, g: calls.append(1) or table(self, g)
        )
        dec = run_split(split, f, character_atoms(6), 0.2)
        if split == "strong":
            assert len(dec.stages) >= 2
        assert dec.iterations >= 2
        assert len(calls) == dec.iterations + 1

    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        family=st.sampled_from(["characters", "reed-muller", "cuts-exact", "cuts-heuristic"]),
        split=st.sampled_from(["strong", "orthogonal", "weak"]),
        eps=st.sampled_from([0.2, 0.3, 0.5]),
    )
    def test_certificate_is_final_scan(self, seed, family, split, eps):
        rng = np.random.default_rng(seed)
        if family.startswith("cuts"):
            n = 6 if family == "cuts-exact" else 20
            atoms = CutAtomSet(n, seed=seed % 7)
            f = rng.uniform(-1, 1, (n, n))
            f[: n // 2, n // 3 :] += rng.uniform(0, 2)  # a planted block
        else:
            atoms = character_atoms(5) if family == "characters" else reed_muller_atoms(4, 2)
            keys = rng.integers(0, len(atoms), 3)
            f = 0.3 * rng.standard_normal(atoms.atom_vector(0).size)
            f = f + sum(rng.uniform(-1, 1) * atoms.atom_vector(int(k)) for k in keys)
        f = f / norm(f)
        dec = run_split(split, f, atoms, eps)
        fresh = atoms.scan(dec.f_psd)
        assert dec.pseudo_found == fresh.lower
        assert dec.pseudo_exact == fresh.exact == atoms.exact


class TestRankedCandidates:
    """candidates() against direct sums on dyadic inputs, whose correlations
    are exact, so ties are exact too and go to the lowest key."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=SEEDS, eps=st.sampled_from([0.0625, 0.125, 0.25, 0.5]))
    def test_characters(self, n, seed, eps):
        rng = np.random.default_rng(seed)
        f = rng.integers(-4, 5, 1 << n) / 4.0
        atoms = character_atoms(n)
        rows = [atoms.atom_vector(k) for k in range(len(atoms))]
        assert atoms.candidates(f, eps) == naive_ranked_candidates(rows, f, eps, limit=1)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, eps=st.sampled_from([0.125, 0.25, 0.5]))
    def test_reed_muller(self, seed, eps):
        rng = np.random.default_rng(seed)
        atoms = reed_muller_atoms(4, 2)
        f = rng.integers(-4, 5, 16) / 4.0
        expected = naive_ranked_candidates(atoms.matrix, f, eps, limit=1)
        assert atoms.candidates(f, eps) == expected


class StuckAtoms(DenseAtomSet):
    """A broken search that always names atom 0 at level 1/2, even once
    atom 0 is in the span and f_psd is orthogonal to it."""

    def scan(self, f):
        return CorrelationScan(0.5, 0.5, self.exact, 0)


class TestWitnessInsideSpan:
    """A witness that clears the threshold lies at least that far from the
    span, so one inside it is a broken search, exact or heuristic alike."""

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("split", ["orthogonal", "strong"])
    def test_raises(self, exact, split):
        atoms = StuckAtoms(np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]]))
        atoms.exact = exact
        with pytest.raises(CertificateError, match="inside the current span"):
            run_split(split, 0.5 * atoms.atom_vector(0), atoms, 0.25)
