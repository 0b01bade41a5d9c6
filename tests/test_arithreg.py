import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrand import (
    BudgetExceededError,
    CertificateError,
    PreconditionError,
    arithmetic_regularize,
    character,
)
from structrand import arithreg
from structrand.arithreg import coset_entries, coset_ids, indicator_from_set
from structrand.cube import f2_rank

from oracles import naive_coset_bias


class TestArithmeticRegularity:
    def test_full_space(self):
        n = 6
        report = arithmetic_regularize(np.ones(1 << n), n, 0.5)
        assert report.codimension == 0
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.density == 1.0
        assert entry.regular
        assert entry.max_bias <= 1e-12

    def test_affine_halfspace(self):
        n = 8
        xi = 37
        f = (character(n, xi) > 0).astype(float)  # {x : x . xi = 0}
        report = arithmetic_regularize(f, n, 0.25)
        assert report.codimension == 1
        assert report.constraints == [xi]
        densities = sorted(e.density for e in report.entries)
        assert densities == [0.0, 1.0]
        assert all(e.regular for e in report.entries)
        assert all(e.max_bias <= 1e-12 for e in report.entries)

    def test_random_set_verdicts_match_oracle(self):
        n = 10
        rng = np.random.default_rng(0)
        random_set = (rng.random(1 << n) < 0.5).astype(float)
        # a clean planted codim-2 subspace {x : x . 531 = x . 416 = 0}
        subspace = ((character(n, 531) > 0) & (character(n, 416) > 0)).astype(float)
        for f, eps, codimension in ((random_set, 0.25, 0), (subspace, 0.1, 2)):
            report = arithmetic_regularize(f, n, eps)
            assert report.success
            assert report.codimension == codimension
            assert report.irregular_count <= eps * 2**report.codimension + 1e-9
            ids = coset_ids(n, report.constraints)
            for cid, entry in enumerate(report.entries):
                members = [int(x) for x in np.flatnonzero(ids == cid)]
                oracle = naive_coset_bias(f, members, entry.density)
                assert entry.max_bias == pytest.approx(oracle, abs=1e-9)
                assert entry.regular == (oracle <= eps + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), share=st.booleans())
    def test_coset_table_matches_oracle(self, data, seed, share):
        n = data.draw(st.integers(2, 8), label="n")
        d = data.draw(st.integers(1, n - 1), label="d")
        rng = np.random.default_rng(seed)
        leads = sorted(rng.choice(n, d, replace=False).tolist(), reverse=True)
        # echelon rows: distinct leading bits over random lower bits; with
        # share, every row also carries the leading bits of the rows below
        basis = [
            (1 << lead)
            | int(rng.integers(0, 1 << lead))
            | (sum(1 << low for low in leads[i + 1 :]) if share else 0)
            for i, lead in enumerate(leads)
        ]
        f = (rng.random(1 << n) < 0.5).astype(float)
        entries = coset_entries(f, n, basis, 0.25)
        assert len(entries) == 1 << d
        for cid, entry in enumerate(entries):
            members = [
                x
                for x in range(1 << n)
                if all(bin(x & b).count("1") % 2 == (cid >> i) & 1 for i, b in enumerate(basis))
            ]
            assert entry.size == len(members) == 1 << (n - d)
            assert entry.representative == members[0]
            assert entry.density == sum(f[x] for x in members) / len(members)
            oracle = naive_coset_bias(f, members, entry.density)
            assert entry.max_bias == pytest.approx(oracle, abs=1e-12)
            assert entry.regular == (oracle <= 0.25 + 1e-9)

    def test_point_list_input(self):
        n = 4
        points = [0, 3, 5, 9, 14]
        report = arithmetic_regularize(points, n, 1.0)
        total = sum(e.density * e.size for e in report.entries)
        assert total == pytest.approx(len(points))

    def test_structured_part_constant_on_cosets(self):
        # the subspace carved out by the constraints makes the selected
        # characters coset-constant by construction
        n = 8
        rng = np.random.default_rng(1)
        base = (rng.random(1 << n) < 0.5).astype(float)
        bump = (character(n, 5) > 0) & (character(n, 66) > 0)
        f = np.clip(base + bump, 0, 1)
        report = arithmetic_regularize(f, n, 0.2)
        ids = coset_ids(n, report.constraints)
        for xi in report.constraints:
            chi = character(n, xi)
            for cid in range(1 << report.codimension):
                vals = np.unique(chi[ids == cid])
                assert vals.size == 1

    def test_rejects_bad_eps(self):
        with pytest.raises(PreconditionError):
            arithmetic_regularize(np.ones(8), 3, 0.0)

    def test_rejects_bad_points(self):
        with pytest.raises(PreconditionError):
            indicator_from_set(3, [9])

    def test_integer_indicator_read_as_indicator(self):
        # a length-2^n array of 0s and 1s is an indicator whatever its dtype
        n = 4
        ones = np.zeros(1 << n, dtype=np.int64)
        ones[:8] = 1
        for dtype in (int, float, bool):
            report = arithmetic_regularize(ones.astype(dtype), n, 0.1)
            assert report.constraints == [8]
            assert [e.density for e in report.entries] == [1.0, 0.0]

    def test_refuses_n_outside_cube_range_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                arithmetic_regularize([], 40, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(PreconditionError):
            arithmetic_regularize([], -1, 0.1)


def _noisy_subspace(rng, n, codim, flip):
    """A random codim-``codim`` subspace with a ``flip`` share of the cube toggled."""
    inside = np.ones(1 << n, dtype=bool)
    for r in rng.integers(1, 1 << n, size=codim):
        inside &= character(n, int(r)) > 0
    return (inside ^ (rng.random(1 << n) < flip)).astype(float)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_refinement_rounds_and_witnesses(data, seed):
    n = data.draw(st.integers(2, 10), label="n")
    eps = data.draw(st.sampled_from([0.1, 0.2, 0.3]), label="eps")
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="planted"):
        codim = data.draw(st.integers(1, min(3, n - 1)), label="codim")
        f = _noisy_subspace(rng, n, codim, data.draw(st.sampled_from([0.0, 0.02, 0.05])))
    else:
        f = (rng.random(1 << n) < data.draw(st.sampled_from([0.2, 0.5]))).astype(float)
    report = arithmetic_regularize(f, n, eps)
    d = report.codimension
    assert report.success and d <= n
    assert report.irregular_count <= eps * 2**d + 1e-9
    rounds = report.rounds
    assert [r["codimension"] for r in rounds] == sorted({r["codimension"] for r in rounds})
    assert rounds[-1]["codimension"] == d
    assert rounds[-1]["irregular"] == report.irregular_count
    for before, after in zip(rounds, rounds[1:]):
        assert before["irregular"] > eps * 2 ** before["codimension"]
        assert after["index_energy"] - before["index_energy"] > eps**3 - 1e-9
    ids = coset_ids(n, report.constraints)
    energy = 0.0
    for cid, entry in enumerate(report.entries):
        members = np.flatnonzero(ids == cid)
        density = f[members].mean()
        energy += density**2 / 2**d
        recount = abs(np.mean((f[members] - density) * character(n, entry.witness)[members]))
        assert recount == pytest.approx(entry.max_bias, abs=1e-12)
        oracle = naive_coset_bias(f, [int(x) for x in members], entry.density)
        assert entry.max_bias == pytest.approx(oracle, abs=1e-9)
        assert entry.regular == (oracle <= eps + 1e-9)
    assert rounds[-1]["index_energy"] == pytest.approx(energy, abs=1e-12)


def test_energy_check_refuses_a_witness_that_gains_nothing(monkeypatch):
    # split every irregular coset along a unit character outside the span of
    # the constraints instead of its worst one: on the planted subspace
    # that moves no density, so the round gains no index energy
    n = 8
    f = ((character(n, 0b10110000) > 0) & (character(n, 0b01101000) > 0)).astype(float)
    table = arithreg.coset_entries

    def weak_witnesses(g, n, basis, eps):
        unit = next(1 << i for i in range(n) if f2_rank([*basis, 1 << i]) > len(basis))
        entries = table(g, n, basis, eps)
        return [e if e.regular else dataclasses.replace(e, witness=unit) for e in entries]

    monkeypatch.setattr(arithreg, "coset_entries", weak_witnesses)
    with pytest.raises(CertificateError):
        arithmetic_regularize(f, n, 0.1)
