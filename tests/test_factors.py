import dataclasses
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from structrand import (
    CertificateError,
    Factor,
    FactorFamily,
    FiniteProbabilitySpace,
    GrowthFunction,
    MajorantViolationError,
    PreconditionError,
    conditional_expectation,
    dyadic_interval_family,
    interval_factor,
    level_set_factor,
    projection_norm,
    sparse_decompose,
    strong_factor_decompose,
    weak_factor_decompose,
)

from structrand.factors import AtomTable, Refinement, majorant_level
from structrand.hilbert import EPS_TOL

from oracles import (
    naive_canonical_labels,
    naive_conditional_expectation,
    naive_staged_factor_split,
)


def random_factor(rng, n, atoms):
    return Factor(rng.integers(0, atoms, n))


class TestSpace:
    def test_uniform(self):
        space = FiniteProbabilitySpace.uniform(10)
        assert space.integral(np.arange(10)) == pytest.approx(4.5)

    def test_rejects_bad_weights(self):
        with pytest.raises(PreconditionError):
            FiniteProbabilitySpace([0.5, 0.6])
        with pytest.raises(PreconditionError):
            FiniteProbabilitySpace([-0.5, 1.5])

    def test_norm_chain(self):
        rng = np.random.default_rng(0)
        space = FiniteProbabilitySpace.uniform(64)
        for _ in range(20):
            f = rng.standard_normal(64)
            assert space.l1(f) <= space.l2(f) + 1e-12
            assert space.l2(f) <= space.linf(f) + 1e-12
            assert space.linf(f) == np.abs(f).max()


class TestConditionalExpectation:
    def test_trivial_factor_gives_mean(self):
        space = FiniteProbabilitySpace.uniform(16)
        f = np.arange(16.0)
        ef = conditional_expectation(space, f, Factor.trivial(16))
        assert np.allclose(ef, f.mean())

    def test_discrete_factor_identity(self):
        space = FiniteProbabilitySpace.uniform(16)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(16)
        assert np.array_equal(
            conditional_expectation(space, f, Factor.discrete(16)), f
        )

    def test_matches_loop_oracle_weighted(self):
        rng = np.random.default_rng(2)
        w = rng.random(32)
        w /= w.sum()
        space = FiniteProbabilitySpace(w)
        f = rng.standard_normal(32)
        labels = rng.integers(0, 5, 32)
        ours = conditional_expectation(space, f, Factor(labels))
        oracle = naive_conditional_expectation(w, f, labels)
        assert np.abs(ours - oracle).max() <= 1e-12

    def test_pythagoras(self):
        rng = np.random.default_rng(3)
        space = FiniteProbabilitySpace.uniform(64)
        f = rng.standard_normal(64)
        y = random_factor(rng, 64, 4)
        ef = conditional_expectation(space, f, y)
        assert abs(
            space.l2(f) ** 2 - space.l2(ef) ** 2 - space.l2(f - ef) ** 2
        ) <= 1e-10

    def test_idempotent_and_mean_preserving(self):
        rng = np.random.default_rng(4)
        space = FiniteProbabilitySpace.uniform(48)
        f = rng.standard_normal(48)
        y = random_factor(rng, 48, 6)
        ef = conditional_expectation(space, f, y)
        assert np.allclose(conditional_expectation(space, ef, y), ef)
        assert abs(space.integral(ef) - space.integral(f)) <= 1e-12

    def test_zero_measure_atoms_get_zero(self):
        space = FiniteProbabilitySpace(np.array([0.5, 0.5, 0.0, 0.0]))
        f = np.array([1.0, 3.0, 7.0, 9.0])
        ef = conditional_expectation(space, f, Factor([0, 0, 1, 1]))
        assert ef[0] == 2.0 and ef[2] == 0.0

    def test_tower_property(self):
        rng = np.random.default_rng(5)
        space = FiniteProbabilitySpace.uniform(64)
        f = rng.standard_normal(64)
        y1 = random_factor(rng, 64, 3)
        y2 = random_factor(rng, 64, 4)
        joined = y1.join(y2)
        lhs = conditional_expectation(
            space, conditional_expectation(space, f, joined), y1
        )
        rhs = conditional_expectation(space, f, y1)
        assert space.l2(lhs - rhs) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 40), atoms=st.integers(2, 6))
    def test_idempotent_and_self_adjoint(self, seed, size, atoms):
        # non-uniform weights, and every point of atom 0 weightless
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, atoms, size)
        labels[:2] = [0, 1]
        w = rng.random(size) + 0.01
        w[labels == 0] = 0.0
        space = FiniteProbabilitySpace(w / w.sum())
        y = Factor(labels)
        f, g = rng.standard_normal(size), rng.standard_normal(size)
        f[0] = -10.0  # the largest |f| sits on a weightless point
        ef = conditional_expectation(space, f, y)
        eg = conditional_expectation(space, g, y)
        assert np.all(ef[labels == 0] == 0.0)
        assert space.linf(f) == np.abs(f[labels != 0]).max()
        assert np.allclose(conditional_expectation(space, ef, y), ef, rtol=0, atol=1e-12)
        assert space.inner(ef, g) == pytest.approx(space.inner(f, eg), abs=1e-12)

    def test_masses_follow_the_space(self):
        # one factor used on two spaces in turn: its masses are always those
        # of the space at hand
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 4, 24)
        labels[:4] = [0, 1, 2, 3]
        w = rng.random(24)
        w[labels == 2] = 0.0
        uniform, weighted = FiniteProbabilitySpace.uniform(24), FiniteProbabilitySpace(w / w.sum())
        y = Factor(labels)
        for space in (uniform, weighted, weighted, uniform, uniform, weighted):
            f = rng.standard_normal(24)
            ours = conditional_expectation(space, f, y)
            oracle = naive_conditional_expectation(space.weights, f, labels)
            assert np.abs(ours - oracle).max() <= 1e-12

    def test_comparison_principle(self):
        rng = np.random.default_rng(6)
        space = FiniteProbabilitySpace.uniform(64)
        f = rng.random(64) + 0.5
        g = f * rng.uniform(-1, 1, 64)  # |g| <= f pointwise
        y = random_factor(rng, 64, 5)
        ef = conditional_expectation(space, f, y)
        eg = conditional_expectation(space, g, y)
        assert np.all(np.abs(eg) <= ef + 1e-12)


def rounding_bound(size, *scales):
    """How far two summation orders can put a projection norm apart, in
    units of ``scales`` (||f||_2 and the norm itself).  Every atom sum of the
    N rounded terms w * f lies within (N + 1)u sum|w f| of the exact one,
    whatever the order, and by Cauchy-Schwarz that moves ||E(f | Y)||_2 by at
    most (N + 1)u ||f||_2; the masses (N terms each), divisions, dot product
    and square root move its square by a relative 2(N + 1)u at most.  Each
    route is that close to the exact norm; 4(N + 2)u covers both."""
    return 4 * (size + 2) * 2.0**-53 * sum(scales)


def gapped_labels(rng, size, atoms, gap):
    """Labels with every one of ``atoms`` values present, spaced ``gap`` apart."""
    labels = rng.integers(0, atoms, size)
    labels[:atoms] = np.arange(atoms)
    return labels * gap


class TestAtomSumNorms:
    """Scans and majorant levels read atom sums; the oracles gather E(f | Y)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(6, 40),
        atoms=st.lists(st.integers(3, 6), min_size=1, max_size=4),
        gap=st.sampled_from([1, 3, 50]),
    )
    def test_projections_match_gathered_oracle(self, seed, size, atoms, gap):
        rng = np.random.default_rng(seed)
        members = [gapped_labels(rng, size, a, gap) for a in atoms]
        w = rng.random(size) + 0.01
        w[members[0] == 0] = 0.0  # one atom of zero weight
        w /= w.sum()
        space = FiniteProbabilitySpace(w)
        family = FactorFamily([Factor(labels) for labels in members])
        f = rng.standard_normal(size)
        levels = family.projections(space, f)
        for labels, y, level in zip(members, family.members, levels):
            ef = naive_conditional_expectation(w, f, labels)
            oracle = math.sqrt(math.fsum(wi * v * v for wi, v in zip(w, ef)))
            assert level == pytest.approx(oracle, rel=1e-12, abs=0)
            # the stock's join orders the sums otherwise than y's own atoms do
            bound = rounding_bound(size, space.l2(f), level)
            assert abs(projection_norm(space, f, y) - level) <= bound

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(8, 40), atoms=st.integers(3, 6))
    def test_majorant_level_is_linf_exactly(self, seed, size, atoms):
        # dyadic weights and integer nu make every atom sum exact, so the two
        # routes divide the same numbers
        rng = np.random.default_rng(seed)
        labels = gapped_labels(rng, size, atoms, 7)
        labels[atoms] = 7  # points 1 and `atoms` share the atom labelled 7
        counts = rng.integers(0, 4, size)
        counts[labels == 0] = 0  # an atom of zero weight, holding point 0
        counts[1] = 0  # a weightless point in an atom of positive mass
        total = 1 << int(counts.sum()).bit_length()
        counts[atoms] += total - counts.sum()
        w = counts / total
        nu = rng.integers(0, 20, size).astype(float)
        nu[:2] = [1000.0, 2000.0]  # the largest nu sits on the weightless points
        space = FiniteProbabilitySpace(w)
        level = majorant_level(space, w * nu, 1e9, Factor(labels), ())
        assert level == space.linf(naive_conditional_expectation(w, nu, labels))


class TestProjectionNorm:
    """||E(f | Y)|| read off Y's own atoms is the one-member stock's scan."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 60),
        width=st.sampled_from([0.1, 0.4, 1.5]),
        weighted=st.booleans(),
    )
    def test_matches_one_member_stock_bit_for_bit(self, seed, size, width, weighted):
        rng = np.random.default_rng(seed)
        y = level_set_factor(rng.standard_normal(size), width)  # negative labels too
        space = FiniteProbabilitySpace.uniform(size)
        if weighted:
            w = rng.random(size)
            w[rng.random(size) < 0.2] = 0.0
            assume(w.sum() > 0)
            space = FiniteProbabilitySpace(w / w.sum())
        f = rng.standard_normal(size)
        assert projection_norm(space, f, y) == FactorFamily([y]).projections(space, f)[0]

    def test_other_ground_set_refused(self):
        space = FiniteProbabilitySpace.uniform(8)
        y = Factor(np.arange(6) % 2)
        for call in (projection_norm, conditional_expectation):
            with pytest.raises(PreconditionError, match="ground sets"):
                call(space, np.ones(8), y)
        stock = FactorFamily([Factor(np.arange(8) % 2)])
        stock.projections(space, np.ones(8))
        with pytest.raises(PreconditionError, match="ground sets"):
            stock.projections(FiniteProbabilitySpace.uniform(16), np.ones(16))

    def test_empty_stock_scans_any_space(self):
        stock = FactorFamily([])
        for size in (8, 16):
            levels = stock.projections(FiniteProbabilitySpace.uniform(size), np.ones(size))
            assert levels.shape == (0,)


class TestScanShape:
    """A stock scan takes one length-N pass over the points (the atom sums of
    weights * f over the stock's join J), however many members the stock has;
    a split takes one for f and reads every scan and join off J's atoms."""

    @staticmethod
    def count_point_passes(monkeypatch, size):
        """Records, for every bincount over ``size`` labels, whether it is weighted."""
        calls = []
        original = np.bincount

        def counting(labels, *args, **kwargs):
            if np.size(labels) == size:
                calls.append(kwargs.get("weights") is not None)
            return original(labels, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        return calls

    def test_scan_and_split_counts(self, monkeypatch):
        rng = np.random.default_rng(1)
        space = FiniteProbabilitySpace.uniform(48)
        labels = [rng.integers(0, 2, 48) for _ in range(6)]
        f = 0.6 * (labels[0] - 0.5) + 0.3 * (labels[1] - 0.5) + 0.15 * rng.standard_normal(48)
        f /= space.l2(f)
        family = FactorFamily([Factor(lab) for lab in labels])
        single = FactorFamily([family[0]])
        for stock in (family, single):  # builds J and counts its masses, once per stock
            stock.projections(space, f)
        calls = self.count_point_passes(monkeypatch, 48)
        for scans, stock in enumerate((family, single, family, single), start=1):
            stock.projections(space, rng.standard_normal(48))
            assert calls == [True] * scans
        calls.clear()
        dec = strong_factor_decompose(space, f, family, 0.1, GrowthFunction.linear(2, offset=1))
        joins = sum(stage["joins"] for stage in dec.stages)
        assert joins >= 2
        # J's sums of weights * f, then the unweighted count that ranks the
        # labels of the factor returned
        assert calls == [True, False]
        calls.clear()
        dec.verify(space, f, family)
        # the unweighted count that ranks the labels of the recorded members'
        # join, E(f | factor) afresh (its masses and sums), then one stock
        # scan of f_psd
        assert calls == [False, True, True, True]

    def test_swapped_labels_tie_to_lower_index(self):
        # a half-interval and its complement are one partition with the labels
        # swapped: their projections tie exactly and the lower index wins
        n = 64
        space = FiniteProbabilitySpace.uniform(n)
        left, right = interval_factor(n, 0, n // 2), interval_factor(n, n // 2, n)
        assert np.array_equal(left.labels, 1 - right.labels)
        f = np.where(np.arange(n) < n // 2, 0.5, -0.3) + 0.1 * np.sin(np.arange(n))
        for pair in ((left, right), (right, left)):
            family = FactorFamily([interval_factor(n, 0, 4), *pair])
            levels = family.projections(space, f)
            assert levels[1] == levels[2] > levels[0]
            refinement = Refinement(space, f, family, Factor.trivial(n))
            assert refinement._best(0.1) == 1


class TestAtomTable:
    """Projections, majorant levels and weak splits read off the atom table of
    the stock's join J agree with the point-by-point oracle."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.integers(6, 13),
        atoms=st.lists(st.integers(3, 6), min_size=3, max_size=5),
        base_atoms=st.integers(2, 4),
        eps=st.sampled_from([0.15, 0.3]),
    )
    def test_join_route_matches_oracle(self, seed, blocks, atoms, base_atoms, eps):
        rng = np.random.default_rng(seed)
        size = 2 * blocks  # below 27 <= the product of the atom counts
        # members constant on point pairs, so every atom of J holds two points
        # and a base split inside the pair (0, 1) is not measurable for J
        members = [np.repeat(gapped_labels(rng, blocks, a, 1), 2) for a in atoms]
        base_labels = rng.integers(0, base_atoms, size)
        base_labels[:2] = [0, 1]
        w = rng.random(size) + 0.01
        w[members[0] == 0] = 0.0  # one member atom of zero weight
        w[rng.random(size) < 0.2] = 0.0
        assume(w.sum() > 0)
        w /= w.sum()
        space = FiniteProbabilitySpace(w)
        family = FactorFamily([Factor(labels) for labels in members])
        base = Factor(base_labels)

        table = family.table(size)
        assert table.factor == reduce(Factor.join, family.members)
        assert AtomTable(family.members, size, base).factor == reduce(
            Factor.join, family.members, base
        )

        f = rng.standard_normal(size)
        f /= max(space.l2(f), 1e-3)
        f_norm = space.l2(f)
        for labels, level in zip(members, family.projections(space, f)):
            ef = naive_conditional_expectation(w, f, labels)
            oracle = math.sqrt(math.fsum(wi * v * v for wi, v in zip(w, ef)))
            assert abs(level - oracle) <= rounding_bound(size, f_norm, oracle)

        # majorant levels: every average of nu is within 4(N + 2)u max nu
        nu = rng.random(size) * 3.0
        bound = rounding_bound(size, nu.max())
        quotient, nu_sums = table.quotient(space), table.sums(w * nu)
        expected = []
        for labels, y in zip([base_labels, *members], [None, *table.members]):
            oracle = space.linf(naive_conditional_expectation(w, nu, labels))
            if y is not None:
                assert abs(majorant_level(quotient, nu_sums, 1e9, y, ()) - oracle) <= bound
            expected.append(oracle)
        refinement = Refinement(space, f, family, base, majorant=(nu, 1e9))
        assert abs(refinement.majorant_linf - max(expected)) <= bound

        split = weak_factor_decompose(space, f, base, family, eps)
        split.verify(space, f, family, base)
        chosen = [family[i] for i in split.member_indices]
        assert split.factor == reduce(Factor.join, chosen, base)
        f_str = naive_conditional_expectation(w, f, split.factor.labels)
        assert np.abs(split.f_str - f_str).max() <= rounding_bound(size, np.abs(f).max())
        # replay the greedy choice with oracle projections
        joined = base
        for idx in [*split.member_indices, None]:
            residual = f - naive_conditional_expectation(w, f, joined.labels)
            levels = [
                math.sqrt(space.inner(e, e))
                for e in (naive_conditional_expectation(w, residual, lab) for lab in members)
            ]
            tol = rounding_bound(size, f_norm, max(levels))
            if idx is None:
                assert max(levels) <= eps + EPS_TOL + tol
            else:
                assert levels[idx] >= max(levels) - 2 * tol
                assert levels[idx] > eps + EPS_TOL - tol
                joined = joined.join(family[idx])


LABEL_DTYPES = (np.bool_, np.uint8, np.int64)


@st.composite
def label_arrays(draw):
    """Label arrays of one dtype; int64 ones may be negative or reach past N."""
    dtype = draw(st.sampled_from(LABEL_DTYPES))
    size = draw(st.integers(1, 40))
    if dtype is np.bool_:
        values = st.booleans()
    elif dtype is np.uint8:
        values = st.integers(0, 255)
    else:
        values = st.integers(draw(st.sampled_from([-5, 0])), draw(st.sampled_from([size, 3 * size])))
    return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype)


class TestFactorLabels:
    @settings(max_examples=200, deadline=None)
    @given(labels=label_arrays())
    def test_labels_match_oracle(self, labels):
        y = Factor(labels)
        expected = naive_canonical_labels(labels.tolist())
        assert y.labels.dtype == np.int64
        assert y.labels.tolist() == expected
        assert y.num_atoms == len(set(expected))

    @settings(max_examples=100, deadline=None)
    @given(a=label_arrays(), b=label_arrays())
    def test_join_matches_oracle_on_pairs(self, a, b):
        size = min(a.size, b.size)
        y1, y2 = Factor(a[:size]), Factor(b[:size])
        pairs = list(zip(y1.labels.tolist(), y2.labels.tolist()))
        assert y1.join(y2).labels.tolist() == naive_canonical_labels(pairs)

    def test_single_point_and_empty(self):
        for labels in ([7], [-3], [0], [True]):
            y = Factor(np.array(labels))
            assert y.labels.tolist() == [0] and y.num_atoms == 1
        for labels in ([], np.array([], dtype=np.int64), np.array([], dtype=bool)):
            y = Factor(labels)
            assert y.labels.dtype == np.int64 and y.labels.size == 0 and y.num_atoms == 0

    def test_labels_are_not_shared_with_the_input(self):
        labels = np.array([0, 1, 1, 0])  # already canonical
        y = Factor(labels)
        labels[:] = 1
        assert y.labels.tolist() == [0, 1, 1, 0] and y.num_atoms == 2

    def test_in_range_labels_are_counted_not_sorted(self, monkeypatch):
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        mask = np.arange(16) < 4
        Factor.from_indicator(mask).join(interval_factor(16, 8, 12))
        Factor.discrete(16).join(Factor.trivial(16))
        Factor(mask)
        assert calls == []
        Factor([-1, 0, 1])  # negative
        Factor([0, 3, 3])  # reaches N
        assert len(calls) == 2


class TestFactorJoin:
    def test_join_self_is_self(self):
        rng = np.random.default_rng(7)
        y = random_factor(rng, 32, 4)
        assert y.join(y) == y

    def test_join_with_trivial(self):
        rng = np.random.default_rng(8)
        y = random_factor(rng, 32, 4)
        assert y.join(Factor.trivial(32)) == y

    def test_join_atom_count_matches_intersections(self):
        rng = np.random.default_rng(9)
        y1 = random_factor(rng, 32, 3)
        y2 = random_factor(rng, 32, 3)
        joined = y1.join(y2)
        pairs = {(int(a), int(b)) for a, b in zip(y1.labels, y2.labels)}
        assert joined.num_atoms == len(pairs)
        assert joined.refines(y1) and joined.refines(y2)
        # 32 points in 3 x 3 random cells: some atom of y1 meets two of y2
        assert len(pairs) > y1.num_atoms and not y1.refines(y2)
        assert not Factor([0, 0, 1, 1]).refines(Factor([0, 1, 1, 1]))
        assert Factor([0, 0, 1, 2]).refines(Factor([5, 5, 7, 7]))

    def test_join_energy_monotone(self):
        rng = np.random.default_rng(10)
        space = FiniteProbabilitySpace.uniform(64)
        for _ in range(10):
            f = rng.standard_normal(64)
            y1 = random_factor(rng, 64, 4)
            y2 = random_factor(rng, 64, 4)
            joined = y1.join(y2)
            assert projection_norm(space, f, joined) >= max(
                projection_norm(space, f, y1), projection_norm(space, f, y2)
            ) - 1e-10

    def test_ground_set_mismatch(self):
        with pytest.raises(PreconditionError):
            Factor.trivial(4).join(Factor.trivial(8))


class TestEnergyIncrement:
    """The first join of a weak factor split is one energy-increment step."""

    def test_measurable_function_gives_none(self):
        rng = np.random.default_rng(11)
        space = FiniteProbabilitySpace.uniform(32)
        y = random_factor(rng, 32, 4)
        family = FactorFamily([random_factor(rng, 32, 2) for _ in range(5)])
        f = conditional_expectation(space, rng.standard_normal(32), y)
        f /= max(space.l2(f), 1.0)
        assert weak_factor_decompose(space, f, y, family, 0.05).member_indices == []

    def test_increment_guarantee(self):
        rng = np.random.default_rng(12)
        space = FiniteProbabilitySpace.uniform(64)
        family = FactorFamily([random_factor(rng, 64, 2) for _ in range(6)])
        member = family[2]
        f = (member.labels == 0).astype(float)
        f /= space.l2(f)
        base = Factor.trivial(64)
        split = weak_factor_decompose(space, f, base, family, 0.05)
        split.verify(space, f, family)
        assert split.member_indices
        idx = split.member_indices[0]
        joined = base.join(family[idx])
        gain = (
            projection_norm(space, f, joined) ** 2
            - projection_norm(space, f, base) ** 2
        )
        assert gain >= 0.05**2 - 1e-12

    def test_eps_one_gives_none(self):
        rng = np.random.default_rng(13)
        space = FiniteProbabilitySpace.uniform(32)
        f = rng.standard_normal(32)
        f /= space.l2(f)
        family = FactorFamily([random_factor(rng, 32, 2) for _ in range(4)])
        assert weak_factor_decompose(space, f, Factor.trivial(32), family, 1.0).member_indices == []


class TestWeakFactorDecompose:
    def test_constant_function(self):
        space = FiniteProbabilitySpace.uniform(32)
        family = FactorFamily([interval_factor(32, 0, 16)])
        split = weak_factor_decompose(
            space, np.full(32, 0.7), Factor.trivial(32), family, 0.3
        )
        assert split.complexity == 0
        assert np.allclose(split.f_str, 0.7)

    def test_member_measurable_function(self):
        rng = np.random.default_rng(14)
        space = FiniteProbabilitySpace.uniform(64)
        member = random_factor(rng, 64, 2)
        family = FactorFamily([member])
        f = conditional_expectation(space, rng.standard_normal(64), member)
        f /= space.l2(f)
        split = weak_factor_decompose(space, f, Factor.trivial(64), family, 0.1)
        split.verify(space, f, family)
        assert split.complexity == 1
        assert space.l2(split.f_psd) <= 0.1 + 1e-9

    def test_random_corpus_postconditions(self):
        rng = np.random.default_rng(15)
        space = FiniteProbabilitySpace.uniform(64)
        family = FactorFamily([random_factor(rng, 64, 2) for _ in range(8)])
        for _ in range(5):
            f = rng.standard_normal(64)
            f /= space.l2(f)
            split = weak_factor_decompose(space, f, Factor.trivial(64), family, 0.3)
            split.verify(space, f, family)
            assert split.complexity <= math.floor(1 / 0.09)
            for member in family.members:
                assert projection_norm(space, split.f_psd, member) <= 0.3 + 1e-9
            assert np.allclose(split.f_str + split.f_psd, f)

    def test_certificate_fields(self):
        rng = np.random.default_rng(12)
        space = FiniteProbabilitySpace.uniform(64)
        family = FactorFamily([random_factor(rng, 64, 2) for _ in range(6)])
        f = (family[2].labels == 0) + 0.3 * rng.standard_normal(64)
        f /= space.l2(f)
        split = weak_factor_decompose(space, f, Factor.trivial(64), family, 0.1)
        assert split.member_indices
        assert [t["member"] for t in split.trace] == split.member_indices
        assert split.trace[-1]["energy"] == pytest.approx(space.l2(split.f_str) ** 2, abs=1e-12)
        # the gain counts from the energy of E(f | trivial factor), the mean squared
        gain = split.trace[-1]["energy"] - space.integral(f) ** 2
        assert split.stages == [
            {
                "threshold": 0.1,
                "joins": split.complexity,
                "energy_gain": pytest.approx(gain, abs=1e-12),
                "members": split.member_indices,
            }
        ]
        assert not split.f_err.any() and split.error_norm == 0.0 and split.growth_m is None
        levels = family.projections(space, split.f_psd)
        assert split.pseudo_found == pytest.approx(levels.max(), abs=1e-12)
        assert split.pseudo_found <= split.pseudorandomness_eps == 0.1

    def test_verify_refuses_tampered_parts(self):
        rng = np.random.default_rng(12)
        eps = 0.1
        space = FiniteProbabilitySpace.uniform(64)
        family = FactorFamily([random_factor(rng, 64, 2) for _ in range(6)])
        f = (family[2].labels == 0) + 0.3 * rng.standard_normal(64)
        f /= space.l2(f)
        split = weak_factor_decompose(space, f, Factor.trivial(64), family, eps)
        split.verify(space, f, family)
        # f_psd pushed along a member it was not joined on, orthogonally to
        # the factor, so that f_str stays E(f | factor) and the parts still sum
        outside = next(i for i in range(len(family)) if i not in split.member_indices)
        g = np.where(family[outside].labels == 0, 1.0, -1.0)
        push = g - conditional_expectation(space, g, split.factor)
        push *= 3 * eps / projection_norm(space, push, family[outside])
        pushed = dataclasses.replace(split, f_psd=split.f_psd + push)
        with pytest.raises(CertificateError, match="f_psd projects"):
            pushed.verify(space, f + push, family)
        # a part of f_psd moved into f_str: the sum holds, f_str is off
        delta = 1e-3 * rng.standard_normal(64)
        moved = dataclasses.replace(split, f_str=split.f_str + delta, f_psd=split.f_psd - delta)
        with pytest.raises(CertificateError, match="f_str is not"):
            moved.verify(space, f, family)
        # every point its own atom, claimed at complexity 0
        discrete = dataclasses.replace(
            split,
            factor=Factor.discrete(64),
            f_str=f,
            f_psd=np.zeros(64),
            member_indices=[],
            complexity=0,
        )
        with pytest.raises(CertificateError, match="recorded members"):
            discrete.verify(space, f, family)
        # the joined member kept, but claimed at complexity 0
        assert len(split.member_indices) == 1
        with pytest.raises(CertificateError, match="complexity"):
            dataclasses.replace(split, complexity=0).verify(space, f, family)


class TestStrongFactorDecompose:
    def test_member_measurable_terminates_immediately(self):
        rng = np.random.default_rng(16)
        space = FiniteProbabilitySpace.uniform(64)
        member = random_factor(rng, 64, 3)
        family = FactorFamily([member])
        f = conditional_expectation(space, rng.standard_normal(64), member)
        f /= space.l2(f)
        dec = strong_factor_decompose(
            space, f, family, 0.5, GrowthFunction.linear(2, offset=1)
        )
        assert space.l2(dec.f_err) <= 0.5 + 1e-9
        assert space.l2(dec.f_psd) <= dec.pseudorandomness_eps + 1e-9

    def test_random_corpus_certificates(self):
        rng = np.random.default_rng(17)
        space = FiniteProbabilitySpace.uniform(128)
        family = FactorFamily([random_factor(rng, 128, 2) for _ in range(10)])
        for _ in range(5):
            f = rng.standard_normal(128)
            f /= space.l2(f)
            dec = strong_factor_decompose(
                space, f, family, 0.4, GrowthFunction.linear(2, offset=1)
            )
            assert dec.stage_index <= math.floor(1 / 0.16) + 1
            dec.verify(space, f, family)
            # structured part is a genuine conditional expectation
            assert dec.f_str.min() >= f.min() - 1e-12
            assert dec.f_str.max() <= f.max() + 1e-12

    def test_requires_doubling_growth(self):
        space = FiniteProbabilitySpace.uniform(16)
        family = FactorFamily([interval_factor(16, 0, 8)])
        f = np.zeros(16)
        with pytest.raises(PreconditionError):
            strong_factor_decompose(
                space, f, family, 0.5, GrowthFunction.linear(1.5)
            )

    def test_comparison_principle_on_produced_factor(self):
        # the factor built for a dominating f keeps domination of the
        # structured parts, pointwise
        rng = np.random.default_rng(21)
        space = FiniteProbabilitySpace.uniform(64)
        family = FactorFamily([random_factor(rng, 64, 2) for _ in range(8)])
        f = rng.random(64)
        f /= space.l2(f)
        g = f * rng.uniform(-1, 1, 64)  # |g| <= f pointwise
        dec = strong_factor_decompose(
            space, f, family, 0.4, GrowthFunction.linear(2, offset=1)
        )
        g_str = conditional_expectation(space, g, dec.factor)
        assert np.all(np.abs(g_str) <= dec.f_str + 1e-12)

    def test_stages_match_plain_loop_oracle(self):
        # seeded so that two stages join members, and every joined member
        # leads the runner-up projection by more than 0.03
        rng = np.random.default_rng(1)
        space = FiniteProbabilitySpace.uniform(48)
        labels = [rng.integers(0, 2, 48) for _ in range(6)]
        f = 0.6 * (labels[0] - 0.5) + 0.3 * (labels[1] - 0.5) + 0.15 * rng.standard_normal(48)
        f /= space.l2(f)
        expected, found = naive_staged_factor_split(
            [1 / 48] * 48, labels, f, 0.1, lambda m: 2 * m + 1
        )
        assert sum(1 for stage in expected if stage["members"]) >= 2
        assert min(stage["gap"] for stage in expected) > 0.03
        family = FactorFamily([Factor(lab) for lab in labels])
        dec = strong_factor_decompose(space, f, family, 0.1, GrowthFunction.linear(2, offset=1))
        assert [s["members"] for s in dec.stages] == [s["members"] for s in expected]
        for got, stage in zip(dec.stages, expected):
            assert got["energy_gain"] == pytest.approx(stage["energy_gain"], abs=1e-9)
        assert dec.pseudo_found == pytest.approx(found, abs=1e-9)


class TestPlantedJoins:
    """A planted two-level input at N = 4096 on sparse-demo's stock (the
    halves and quarters): f has density 0.9 of nu on the left half and 0.1 on
    the right, so the first stage joins a half (the halves tie exactly, and
    the lower index wins) and the quarters then see only noise."""

    N = 4096

    def _planted(self, seed):
        n = self.N
        rng = np.random.default_rng(seed)
        space = FiniteProbabilitySpace.uniform(n)
        family = dyadic_interval_family(n, n // 4)
        # nu = 2 on half of every 16-point block, so E(nu | Y) = 1 for every
        # factor the stock generates
        nu = 2.0 * rng.permuted(np.tile(np.arange(16) < 8, (n // 16, 1)), axis=1).ravel()
        f = nu * (rng.random(n) < np.where(np.arange(n) < n // 2, 0.9, 0.1))
        return space, family, nu, f

    def check_against_oracle(self, space, f, family, dec, eps):
        members = [y.labels for y in family.members]
        expected, found = naive_staged_factor_split(
            [1 / self.N] * self.N, members, f, eps, lambda m: 2 * m + 1
        )
        assert sum(len(stage["members"]) for stage in expected) >= 1
        assert [s["members"] for s in dec.stages] == [s["members"] for s in expected]
        for got, stage in zip(dec.stages, expected):
            assert got["energy_gain"] == pytest.approx(stage["energy_gain"], abs=1e-9)
        assert dec.pseudo_found == pytest.approx(found, abs=1e-9)
        dec.verify(space, f, family)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_strong_split_joins(self, seed):
        space, family, _, f = self._planted(seed)
        f = f / space.l2(f)
        dec = strong_factor_decompose(space, f, family, 0.3, GrowthFunction.linear(2, offset=1))
        self.check_against_oracle(space, f, family, dec, 0.3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sparse_split_joins(self, seed):
        space, family, nu, f = self._planted(seed)
        dec = sparse_decompose(space, f, nu, family, 0.3, GrowthFunction.linear(2, offset=1), 0.2)
        assert dec.majorant_linf == pytest.approx(1.0)
        self.check_against_oracle(space, f, family, dec, 0.3)


class TestSparseDecompose:
    def _instance(self, seed, n_points=1 << 12):
        log_n = math.log(n_points)
        rng = np.random.default_rng(seed)
        majorant_set = rng.random(n_points) < 1 / log_n
        subset = majorant_set & (rng.random(n_points) < 0.5)
        nu = log_n * majorant_set.astype(float)
        f = log_n * subset.astype(float)
        space = FiniteProbabilitySpace.uniform(n_points)
        family = dyadic_interval_family(n_points, n_points // 4)
        return space, f, nu, family

    def test_bounded_majorant_reduces_to_dense(self):
        space = FiniteProbabilitySpace.uniform(64)
        rng = np.random.default_rng(18)
        f = (rng.random(64) < 0.4).astype(float)
        nu = np.ones(64)
        family = dyadic_interval_family(64, 16)
        dec = sparse_decompose(
            space, f, nu, family, 0.4, GrowthFunction.linear(2, offset=1), eta=0.0
        )
        assert dec.f_str.min() >= -1e-9
        assert dec.f_str.max() <= 1.0 + 1e-9

    def test_model_instance(self):
        space, f, nu, family = self._instance(1)
        dec = sparse_decompose(
            space, f, nu, family, 0.3, GrowthFunction.linear(2, offset=1), eta=0.2
        )
        assert dec.f_str.min() >= -1e-9
        assert dec.f_str.max() <= 1.2 + 1e-9
        assert abs(space.integral(dec.f_str) - space.integral(f)) <= 1e-12
        assert dec.majorant_linf <= 1.2 + 1e-9
        dec.verify(space, f, family)

    def test_majorant_equals_f(self):
        space, _, nu, family = self._instance(2)
        dec = sparse_decompose(
            space, nu, nu, family, 0.3, GrowthFunction.linear(2, offset=1), eta=0.2
        )
        assert dec.f_str.max() <= 1.2 + 1e-9
        assert abs(space.integral(dec.f_str) - space.integral(nu)) <= 1e-12

    def test_domination_violation_rejected(self):
        space, f, nu, family = self._instance(3)
        with pytest.raises(PreconditionError):
            sparse_decompose(
                space, nu * 2, nu, family, 0.3, GrowthFunction.linear(2, offset=1), eta=0.2
            )

    def test_majorant_violation_names_factor(self):
        space = FiniteProbabilitySpace.uniform(64)
        nu = np.zeros(64)
        nu[:8] = 8.0  # conditional expectation on the first interval blows up
        f = nu.copy()
        family = FactorFamily([interval_factor(64, 0, 8), interval_factor(64, 0, 32)])
        with pytest.raises(MajorantViolationError) as err:
            sparse_decompose(
                space, f, nu, family, 0.4, GrowthFunction.linear(2, offset=1), eta=0.2
            )
        assert err.value.members == (0,)
        assert err.value.linf == pytest.approx(8.0)

    def test_majorant_violation_from_join(self):
        # each stock member and the trivial factor see nu at most 1.1, but
        # the join of the two members isolates [16, 32), where nu is 2.2
        space = FiniteProbabilitySpace.uniform(64)
        nu = np.zeros(64)
        nu[16:32] = 2.2
        family = FactorFamily([interval_factor(64, 0, 32), interval_factor(64, 16, 48)])
        with pytest.raises(MajorantViolationError) as err:
            sparse_decompose(
                space, nu, nu, family, 0.3, GrowthFunction.linear(2, offset=1), eta=0.2
            )
        assert err.value.members == (0, 1)
        assert err.value.linf == pytest.approx(2.2)

    def test_mean_shift_rejected(self, monkeypatch):
        import structrand.factors as factors

        space, f, nu, family = self._instance(1)
        original = factors.strong_factor_decompose

        def shifted(*args, **kwargs):
            dec = original(*args, **kwargs)
            dec.f_str = dec.f_str + 1e-6
            return dec

        monkeypatch.setattr(factors, "strong_factor_decompose", shifted)
        with pytest.raises(CertificateError, match="keep the mean"):
            sparse_decompose(
                space, f, nu, family, 0.3, GrowthFunction.linear(2, offset=1), eta=0.2
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.2, 0.3]))
    def test_verify_certifies_sparse_split(self, seed, eps):
        # nu = 2 on half of every 16-point block, so E(nu | Y) = 1 on every
        # factor built from the stock; f keeps most of nu on one half and
        # little on the other, so f - E f nearly always projects onto some
        # member past the first stage's threshold 1/3 and the stage joins it
        # (a few draws, such as seed 76388, fall short and rightly join none)
        rng = np.random.default_rng(seed)
        space = FiniteProbabilitySpace.uniform(256)
        family = dyadic_interval_family(256, 16)
        nu = 2.0 * (rng.permuted(np.tile(np.arange(16) < 8, (16, 1)), axis=1).ravel())
        halves = np.repeat(rng.permutation([0.0, 1.0]), 8) + 0.15 * rng.standard_normal(16)
        f = nu * (rng.random(256) < np.repeat(np.clip(halves, 0, 1), 16))
        assume(family.projections(space, f - space.integral(f)).max() > 1 / 3 + 1e-9)
        eta = float(rng.uniform(0.0, 0.5))
        dec = sparse_decompose(space, f, nu, family, eps, GrowthFunction.linear(2, offset=1), eta)
        assert dec.complexity >= 1
        dec.verify(space, f, family)
        assert dec.majorant_linf == pytest.approx(1.0)
        # 1_Y - E(1_Y | factor) for the member least seen by the factor is
        # invisible to E(. | factor) but not to that member
        shifts = []
        for member in family.members:
            g = member.labels.astype(float)
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


class TestLevelSetFactor:
    def test_constant_single_atom(self):
        assert level_set_factor(np.full(16, 0.37), 0.1).num_atoms == 1

    def test_oscillation_below_eps(self):
        rng = np.random.default_rng(19)
        g = rng.standard_normal(128)
        for alpha in (0.0, 0.3, 0.9):
            factor = level_set_factor(g, 0.25, alpha)
            for atom in factor.atoms():
                assert g[atom].max() - g[atom].min() < 0.25

    def test_projection_bound(self):
        rng = np.random.default_rng(20)
        space = FiniteProbabilitySpace.uniform(256)
        for _ in range(100):
            f = rng.standard_normal(256)
            g = rng.standard_normal(256)
            f /= space.l1(f)
            g /= space.l2(g)
            eps = float(rng.choice([0.05, 0.1, 0.2]))
            alpha = float(rng.choice(np.arange(0, 1, 0.1)))
            factor = level_set_factor(g, eps, alpha)
            lhs = space.l2(conditional_expectation(space, f, factor))
            assert lhs >= abs(space.inner(f, g)) - eps - 1e-12

    def test_alpha_shifts_boundaries(self):
        g = np.array([0.0, 0.06])
        assert level_set_factor(g, 0.1, 0.0).num_atoms == 1
        assert level_set_factor(g, 0.1, 0.5).num_atoms == 2
