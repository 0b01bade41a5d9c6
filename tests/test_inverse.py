import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from structrand import (
    F2Polynomial,
    PreconditionError,
    character,
    correlation_search,
    gowers_norm,
    inverse_99,
    inverse_100,
    reed_muller_atoms,
    rigidity_check,
    rigidity_gap,
)

from structrand import inverse
from structrand.inverse import VOTE_THRESHOLD, _vote_tallies

from oracles import naive_inner, naive_vote_tallies


def planted_noisy_code(rng, n, monomials, flip):
    poly = F2Polynomial.from_monomials(n, monomials)
    code = poly.code()
    noise = np.where(rng.random(1 << n) < flip, -1.0, 1.0)
    return poly, code, code * noise


class TestInverse100:
    def test_constant_one(self):
        assert inverse_100(np.ones(16), 2) == F2Polynomial.zero(4)

    def test_quadratic_code(self):
        poly = F2Polynomial.from_monomials(4, [(0, 1), (2,)])
        assert inverse_100(poly.code(), 3) == poly

    def test_negative_constant_has_constant_term(self):
        poly = inverse_100(-np.ones(8), 1)
        assert poly == F2Polynomial.from_monomials(3, [()])

    def test_non_code_returns_none(self):
        rng = np.random.default_rng(0)
        f = np.where(rng.random(16) < 0.5, -1.0, 1.0)
        # a random sign pattern is essentially never a quadratic code
        if gowers := inverse_100(f, 3):
            assert np.array_equal(gowers.code(), f)

    def test_requires_pm_one(self):
        with pytest.raises(PreconditionError):
            inverse_100(np.full(16, 0.5), 2)

    def test_roundtrip_all_degree2_codes_n4(self):
        atoms = reed_muller_atoms(4, 2)
        for i in range(len(atoms)):
            poly = atoms.polynomial(i)
            assert inverse_100(atoms.atom_vector(i), 3) == poly


class TestInverse99:
    def test_exact_code_delta_zero(self):
        poly = F2Polynomial.from_monomials(6, [(1,), (3,)])
        rec = inverse_99(poly.code(), 2, 0.0)
        assert rec is not None
        assert rec.correlation == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(rec.sign * rec.poly.code(), poly.code())

    def test_low_norm_gate(self):
        rng = np.random.default_rng(1)
        f = np.where(rng.random(1 << 10) < 0.5, -1.0, 1.0)
        assert inverse_99(f, 2, 0.25) is None

    def test_delta_cap_enforced(self):
        with pytest.raises(PreconditionError):
            inverse_99(np.ones(16), 2, 0.5)
        with pytest.raises(PreconditionError):
            inverse_99(np.ones(16), 3, 0.2)

    def test_plant_and_recover_linear(self):
        rng = np.random.default_rng(2)
        planted, code, noisy = planted_noisy_code(rng, 10, [(2,), (5,), (9,)], 0.01)
        rec = inverse_99(noisy, 2, 0.1)
        assert rec is not None
        assert np.array_equal(rec.sign * rec.poly.code(), code)
        assert rec.correlation >= 0.95

    def test_plant_and_recover_quadratic(self):
        rng = np.random.default_rng(3)
        planted, code, noisy = planted_noisy_code(
            rng, 8, [(0, 1), (3, 6), (2,), ()], 0.005
        )
        rec = inverse_99(noisy, 3, 1 / 16)
        assert rec is not None
        assert np.array_equal(rec.sign * rec.poly.code(), code)
        assert rec.correlation >= 0.95
        assert rec.poly.degree <= 2

    def test_sign_absorbs_planted_constant(self):
        poly = F2Polynomial.from_monomials(6, [(0,), ()])
        rec = inverse_99(poly.code(), 2, 0.1)
        assert rec.sign == -1
        assert np.array_equal(rec.sign * rec.poly.code(), poly.code())


def first_bad_vote(counts, ones):
    """The log reason, with its k, at which a pass over k in increasing order stops."""
    for k, (count, one) in enumerate(zip(counts, ones)):
        if count == 0:
            return f"no good shift pair sums to {k}"
        fraction = max(one, count - one) / count
        if fraction < VOTE_THRESHOLD:
            return f"ambiguous vote at k={k} (majority {fraction:.3f})"
    return None


class TestVoteTallies:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 7), d=st.sampled_from([2, 3]))
    def test_tallies_match_pair_loop(self, data, n, d):
        size = 1 << n
        kept = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
        xis = np.zeros(size, dtype=np.int64)
        if d == 3:
            xis = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        counts, ones = _vote_tallies(kept, np.flatnonzero(kept), bits, xis, d)
        want_counts, want_ones = naive_vote_tallies(kept, bits, xis)
        assert counts.tolist() == want_counts
        assert ones.tolist() == want_ones

    def test_d3_tallies_across_blocks(self, monkeypatch):
        # 7 cells per block is fewer than the kept shifts, so one k per block
        monkeypatch.setattr(inverse, "BLOCK_CELLS", 7)
        rng = np.random.default_rng(0)
        kept, bits, xis = rng.random(64) < 0.7, rng.integers(0, 2, 64), rng.integers(0, 64, 64)
        counts, ones = _vote_tallies(kept, np.flatnonzero(kept), bits, xis, 3)
        assert (counts.tolist(), ones.tolist()) == naive_vote_tallies(kept, bits, xis)

    @pytest.mark.parametrize(
        "kept, bits, reason",
        [
            # a hyperplane: no kept pair sums to a k off it
            ([1, 0, 1, 0, 1, 0, 1, 0], [0] * 8, "no good shift pair sums to 1"),
            # bits not affine: the vote at k = 1 splits 2 to 2
            ([1, 1, 1, 1], [0, 0, 0, 1], "ambiguous vote at k=1 (majority 0.500)"),
        ],
        ids=["empty-k", "ambiguous-k"],
    )
    def test_first_failing_vote(self, kept, bits, reason, monkeypatch, caplog):
        # f = 1 passes every gate, so the contrived derivative fits alone
        # decide the vote
        size = len(kept)
        corr = np.where(np.array(bits) == 1, -1.0, 1.0)
        mask = np.where(np.array(kept) == 1, 1.0, 0.0)
        fits = (np.ones(size), np.zeros(size, dtype=np.int64), corr * mask)
        monkeypatch.setattr(inverse, "_derivative_fits", lambda f, d: fits)
        counts, ones = naive_vote_tallies(kept, bits, [0] * size)
        assert first_bad_vote(counts, ones) == reason
        with caplog.at_level(logging.INFO, logger="structrand.inverse"):
            assert inverse_99(np.ones(size), 2, 0.1) is None
        assert caplog.messages == [f"inverse_99: {reason}"]


class TestRigidity:
    def test_zero_polynomial(self):
        assert rigidity_check(F2Polynomial.zero(4)) == 1.0

    def test_balanced_linear(self):
        assert rigidity_check(F2Polynomial.from_monomials(4, [(0,)])) == 0.0

    def test_gap_n4_k2(self):
        gap, runner_mean, runner = rigidity_gap(4, 2)
        assert runner_mean == pytest.approx(0.5)
        assert gap == pytest.approx(0.5)
        assert runner.degree == 2
        # the implication: any enumerated code with mean above 1 - gap is the
        # all-ones code
        atoms = reed_muller_atoms(4, 2)
        for i in range(len(atoms)):
            if atoms.atom_vector(i).mean() > 1 - gap + 1e-12:
                assert atoms.polynomial(i).monomials == ()

    def test_gap_n4_k1(self):
        gap, runner_mean, _ = rigidity_gap(4, 1)
        assert runner_mean == pytest.approx(0.0)
        assert gap == pytest.approx(1.0)


class TestCorrelationSearch:
    def test_code_finds_itself(self):
        poly = F2Polynomial.from_monomials(4, [(0, 2), (1,)])
        found, corr = correlation_search(poly.code(), 3)
        assert found == poly
        assert corr == pytest.approx(1.0)

    def test_character_input(self):
        f = character(4, 5)
        found, corr = correlation_search(f, 2)
        assert corr == pytest.approx(1.0)
        assert np.array_equal(found.code(), f)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        f = np.where(rng.random(16) < 0.5, -1.0, 1.0)
        found, corr = correlation_search(f, 3)
        atoms = reed_muller_atoms(4, 2)
        best = max(
            naive_inner(atoms.atom_vector(i), f) for i in range(len(atoms))
        )
        assert corr == pytest.approx(best, abs=1e-12)


class _GateValues(logging.Handler):
    """Collects the norm that inverse_99's gate logs when it refuses."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.values = []

    def emit(self, record):
        if record.msg.startswith("inverse_99 gate"):
            self.values.append(record.args[1])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_gate_norm_matches_gowers_norm(data, seed):
    # the gate reads ||f||_{U^d} off the derivative fits; at delta = 0 every
    # f with norm below 1 is refused, and the refusal logs the value it used
    d = data.draw(st.sampled_from([2, 3]), label="d")
    n = data.draw(st.integers(2, 10 if d == 2 else 7), label="n")
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="planted"):
        _, _, f = planted_noisy_code(rng, n, [(0,), (0, n - 1)], 0.05)
    else:
        f = np.where(rng.random(1 << n) < 0.5, -1.0, 1.0)
    expected = gowers_norm(f, d)
    assume(expected < 1.0 - 1e-6)
    logger = logging.getLogger("structrand.inverse")
    handler, level = _GateValues(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        assert inverse_99(f, d, 0.0) is None
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert handler.values == [pytest.approx(expected, abs=1e-12)]
