import math

import numpy as np
import pytest
from hypothesis import given, settings
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

from oracles import naive_conditional_expectation, naive_staged_factor_split


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
        ef = conditional_expectation(space, f, y)
        eg = conditional_expectation(space, g, y)
        assert np.all(ef[labels == 0] == 0.0)
        assert np.allclose(conditional_expectation(space, ef, y), ef, rtol=0, atol=1e-12)
        assert space.inner(ef, g) == pytest.approx(space.inner(f, eg), abs=1e-12)

    def test_comparison_principle(self):
        rng = np.random.default_rng(6)
        space = FiniteProbabilitySpace.uniform(64)
        f = rng.random(64) + 0.5
        g = f * rng.uniform(-1, 1, 64)  # |g| <= f pointwise
        y = random_factor(rng, 64, 5)
        ef = conditional_expectation(space, f, y)
        eg = conditional_expectation(space, g, y)
        assert np.all(np.abs(eg) <= ef + 1e-12)


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
            assert split.complexity <= math.floor(1 / 0.09)
            for member in family.members:
                assert projection_norm(space, split.f_psd, member) <= 0.3 + 1e-9
            assert np.allclose(split.f_str + split.f_psd, f)


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
        # little on the other, so the first stage always joins a member
        rng = np.random.default_rng(seed)
        space = FiniteProbabilitySpace.uniform(256)
        family = dyadic_interval_family(256, 16)
        nu = 2.0 * (rng.permuted(np.tile(np.arange(16) < 8, (16, 1)), axis=1).ravel())
        halves = np.repeat(rng.permutation([0.0, 1.0]), 8) + 0.15 * rng.standard_normal(16)
        f = nu * (rng.random(256) < np.repeat(np.clip(halves, 0, 1), 16))
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
