import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrand import (
    BudgetExceededError,
    F2Polynomial,
    PreconditionError,
    dual_function,
    gowers_norm,
    gowers_norm_batch,
    gowers_norm_u2_fft,
    gvn_defect,
    inner_product,
    inverse_walsh_hadamard,
    walsh_hadamard,
)

from structrand.gowers import _u_power_direct

from oracles import naive_dual, naive_gowers_norm


def random_pm1(rng, size):
    return np.where(rng.random(size) < 0.5, -1.0, 1.0)


def random_invertible(rng, n):
    from structrand.cube import f2_matrix_rank

    while True:
        mat = rng.integers(0, 2, (n, n))
        if f2_matrix_rank(mat) == n:
            return mat


def random_gvn_maps(rng, n):
    from structrand.cube import f2_matrix_rank

    while True:
        t1 = random_invertible(rng, n)
        t2 = random_invertible(rng, n)
        if f2_matrix_rank(t1 ^ t2) == n:
            return t1, t2


class TestGowersNorm:
    def test_constant_one_any_d(self):
        f = np.ones(16)
        for d in range(1, 5):
            assert gowers_norm(f, d) == pytest.approx(1.0, abs=1e-12)

    def test_reed_muller_code_norm_one(self):
        # a code of degree d-1 or lower is maximally structured at level d
        for d, monos in ((2, [(0,), (3,)]), (3, [(0, 1), (2,)])):
            f = F2Polynomial.from_monomials(4, monos).code()
            assert gowers_norm(f, d) == pytest.approx(1.0, abs=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(-1, 1, 16)
        for d in (1, 2, 3):
            assert gowers_norm(f, d) == pytest.approx(naive_gowers_norm(f, d), abs=1e-9)

    def test_direct_equals_recursive(self):
        # the derivative recursion against the literal parallelepiped average
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.uniform(-1, 1, 16)
            for d in (1, 2, 3):
                direct = max(_u_power_direct(f, d), 0.0) ** (1.0 / (1 << d))
                assert abs(gowers_norm(f, d) - direct) <= 1e-9

    def test_monotone_in_d(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = rng.uniform(-1, 1, 64)
            u1, u2, u3 = (gowers_norm(f, d) for d in (1, 2, 3))
            assert u1 <= u2 + 1e-9
            assert u2 <= u3 + 1e-9
            assert u3 <= np.abs(f).max() + 1e-9

    def test_budget_and_d_caps(self):
        with pytest.raises(PreconditionError):
            gowers_norm(np.ones(8), 5)
        # the recursion touches 2^{n (d - 1)} cells: 2^28 for U^3 at n = 14
        with pytest.raises(BudgetExceededError):
            gowers_norm(np.ones(1 << 14), 3)
        with pytest.raises(BudgetExceededError):
            gowers_norm(np.ones(1 << 9), 4)

    def test_trilinear_form_budget(self):
        # the form sums over all 2^n x 2^n pairs (x, r): 2^28 at n = 14
        f = np.ones(1 << 14)
        eye = np.eye(14, dtype=np.int64)
        with pytest.raises(BudgetExceededError):
            gvn_defect(f, f, f, eye, eye)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(21)
        fs = rng.uniform(-1, 1, (20, 16))
        for d in (1, 2, 3):
            batch = gowers_norm_batch(fs, d)
            single = [gowers_norm(f, d) for f in fs]
            assert np.abs(batch - np.array(single)).max() <= 1e-12


class TestU2Transform:
    def test_single_character(self):
        from structrand import character

        assert gowers_norm_u2_fft(character(5, 7)) == pytest.approx(1.0, abs=1e-12)

    def test_two_equal_coefficients(self):
        from structrand import character

        f = (character(4, 1) + character(4, 2)) / np.sqrt(2)
        assert gowers_norm_u2_fft(f) == pytest.approx(2 ** -0.25, abs=1e-12)

    def test_agrees_with_recursion(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = rng.uniform(-1, 1, 1 << 10)
            assert abs(gowers_norm(f, 2) - gowers_norm_u2_fft(f)) <= 1e-9

    def test_modulation_symmetry(self):
        # multiplying by a low-degree code leaves U^d unchanged
        rng = np.random.default_rng(4)
        f = rng.uniform(-1, 1, 16)
        g2 = F2Polynomial.from_monomials(4, [(1,), ()]).code()
        g3 = F2Polynomial.from_monomials(4, [(0, 2), (3,)]).code()
        assert abs(gowers_norm(f * g2, 2) - gowers_norm(f, 2)) <= 1e-9
        assert abs(gowers_norm(f * g3, 3) - gowers_norm(f, 3)) <= 1e-9


class TestDualFunction:
    def test_constant(self):
        assert np.allclose(dual_function(np.ones(16), 3), 1.0)
        c = 0.7
        d = 2
        out = dual_function(np.full(8, c), d)
        assert np.allclose(out, c ** (2**d - 1))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        f = rng.uniform(-1, 1, 8)
        for d in (1, 2):
            assert np.abs(dual_function(f, d) - naive_dual(f, d)).max() <= 1e-9

    def test_duality_identity(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for _ in range(5):
                f = rng.uniform(-1, 1, 16)
                lhs = inner_product(f, dual_function(f, d))
                rhs = gowers_norm(f, d) ** (1 << d)
                assert abs(lhs - rhs) <= 1e-9

    def test_cauchy_schwarz_direction(self):
        # correlation with any bounded dual witness forces a large norm
        rng = np.random.default_rng(7)
        for d in (2, 3):
            for _ in range(10):
                f = rng.uniform(-1, 1, 16)
                w = rng.uniform(-1, 1, 16)
                g = dual_function(w, d)
                corr = abs(inner_product(f, g))
                assert gowers_norm(f, d) >= corr - 1e-9

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            dual_function(np.ones(1 << 14), 3)


SEEDS = st.integers(0, 2**32 - 1)


def cube_function(seed, n, pm_one=False):
    rng = np.random.default_rng(seed)
    return random_pm1(rng, 1 << n) if pm_one else rng.uniform(-1, 1, 1 << n)


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), seed=SEEDS, pm_one=st.booleans())
    def test_engine_equals_direct(self, data, d, seed, pm_one):
        n = data.draw(st.integers(0, 24 // (d + 1)), label="n")
        f = cube_function(seed, n, pm_one)
        assert abs(gowers_norm(f, d) ** (1 << d) - _u_power_direct(f, d)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 4), n=st.integers(0, 6), count=st.integers(1, 5), seed=SEEDS)
    def test_batch_rows_equal_single(self, d, n, count, seed):
        fs = np.random.default_rng(seed).uniform(-1, 1, (count, 1 << n))
        single = np.array([gowers_norm(f, d) for f in fs])
        assert np.abs(gowers_norm_batch(fs, d) - single).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 10),
        lead=st.lists(st.integers(0, 3), max_size=2),
        seed=SEEDS,
    )
    def test_stacked_transform_is_row_wise(self, n, lead, seed):
        stack = np.random.default_rng(seed).uniform(-1, 1, (*lead, 1 << n))
        spec = walsh_hadamard(stack)
        assert spec.shape == stack.shape
        for index in np.ndindex(*lead):
            assert np.array_equal(spec[index], walsh_hadamard(stack[index]))
        assert np.abs(inverse_walsh_hadamard(spec) - stack).max(initial=0.0) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 4), n=st.integers(0, 5), seed=SEEDS, pm_one=st.booleans())
    def test_dual_pairs_to_norm_power(self, d, n, seed, pm_one):
        f = cube_function(seed, n, pm_one)
        lhs = inner_product(f, dual_function(f, d))
        assert abs(lhs - gowers_norm(f, d) ** (1 << d)) <= 1e-12


class TestGeneralizedVonNeumann:
    def test_zero_function(self):
        rng = np.random.default_rng(13)
        t1, t2 = random_gvn_maps(rng, 4)
        lhs, bound = gvn_defect(np.zeros(16), np.ones(16), np.ones(16), t1, t2)
        assert lhs == 0.0

    def test_equality_at_constants(self):
        n = 3
        rng = np.random.default_rng(8)
        t1, t2 = random_gvn_maps(rng, n)
        lhs, bound = gvn_defect(np.ones(8), np.ones(8), np.ones(8), t1, t2)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_random_instances_bounded(self):
        rng = np.random.default_rng(9)
        n = 5
        for _ in range(50):
            t1, t2 = random_gvn_maps(rng, n)
            f = rng.uniform(-1, 1, 32)
            g = rng.uniform(-1, 1, 32)
            h = rng.uniform(-1, 1, 32)
            lhs, bound = gvn_defect(f, g, h, t1, t2)
            assert lhs <= bound + 1e-9

    def test_rejects_singular_maps(self):
        n = 3
        eye = np.eye(n, dtype=int)
        with pytest.raises(PreconditionError):
            gvn_defect(np.ones(8), np.ones(8), np.ones(8), eye, eye)  # T1 - T2 = 0
        zero = np.zeros((n, n), dtype=int)
        with pytest.raises(PreconditionError):
            gvn_defect(np.ones(8), np.ones(8), np.ones(8), zero, eye)

    def test_rejects_out_of_range(self):
        n = 3
        eye = np.eye(n, dtype=int)
        swap = eye[::-1].copy()
        with pytest.raises(PreconditionError):
            gvn_defect(np.full(8, 2.0), np.ones(8), np.ones(8), swap, eye)
