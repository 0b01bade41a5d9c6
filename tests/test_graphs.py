import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrand import (
    BudgetExceededError,
    CutAtomSet,
    PreconditionError,
    edge_density,
    gnp_random_graph,
    graph_from_edges,
    inner_product,
    norm,
    regular_pair_check,
    szemeredi_regularize,
    weak_regularize,
)
from structrand.graphs import (
    CUT_STARTS,
    CUT_SWEEPS,
    CutAtom,
    _atom_cells,
    _greedy_side,
    _sampled_draws,
)
from structrand.hilbert import weak_decompose

from oracles import (
    count_edges,
    cut_rounding_bound,
    naive_atom_cells,
    naive_best_cut,
    naive_cut_pool,
    naive_exact_search,
    naive_greedy_side,
    naive_regular_pair,
)


def half_graph(k):
    """Parts {0..k-1} and {k..2k-1}, edge (i, k+j) iff i < j."""
    edges = [(i, k + j) for i in range(k) for j in range(k) if i < j]
    return graph_from_edges(2 * k, edges)


class TestGraphBasics:
    def test_graph_from_edges_symmetric(self):
        g = graph_from_edges(4, [(0, 1), (2, 3), (1, 0)])
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == 0)
        assert g[0, 1] == 1 and g[3, 2] == 1

    def test_edge_density_extremes(self):
        n = 8
        complete = np.ones((n, n)) - np.eye(n)
        assert edge_density(complete, range(4), range(4, 8)) == 1.0
        assert edge_density(np.zeros((n, n)), range(4), range(4, 8)) == 0.0

    def test_edge_density_matches_count(self):
        rng = np.random.default_rng(0)
        g = gnp_random_graph(64, 0.5, rng)
        rows = rng.choice(64, 16, replace=False)
        cols = rng.choice(64, 16, replace=False)
        expected = count_edges(g, rows, cols) / 256
        assert edge_density(g, rows, cols) == expected

    def test_empty_part_rejected(self):
        with pytest.raises(PreconditionError):
            edge_density(np.zeros((4, 4)), [], [0])


class TestCutAtomSearch:
    def test_planted_block(self):
        atom_vals = np.zeros((8, 8))
        atom_vals[:4, 4:] = 1.0
        found = CutAtomSet(8).candidates(atom_vals, 0.1)
        assert found
        ip = inner_product(atom_vals, found[0][0].values())
        assert ip >= 16 / 64 - 1e-12

    def test_zero_function(self):
        assert CutAtomSet(8).candidates(np.zeros((8, 8)), 0.1) == []

    def test_exhaustive_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.uniform(-1, 1, (6, 6))
            scan = CutAtomSet(6).scan(f)
            assert scan.exact
            assert scan.lower == pytest.approx(naive_best_cut(f), abs=1e-12)

    def test_planted_bias_recovered(self):
        rng = np.random.default_rng(2)
        g = gnp_random_graph(32, 0.5, rng)
        extra = np.zeros((32, 32), dtype=bool)
        extra[:16, 16:] = rng.random((16, 16)) < 0.3
        extra = np.triu(extra, 1)
        g = np.clip(g + extra + extra.T, 0, 1)
        f = g - g.mean()
        planted = inner_product(f, np.pad(np.ones((16, 16)), ((0, 16), (16, 0)))[:32, :32])
        found = CutAtomSet(32).candidates(f, abs(planted) / 2)
        assert found
        assert abs(inner_product(f, found[0][0].values())) >= abs(planted) / 2

    def test_heuristic_flagged(self):
        rng = np.random.default_rng(3)
        f = rng.uniform(-1, 1, (20, 20))
        scan = CutAtomSet(20).scan(f)
        assert not scan.exact
        assert scan.upper >= scan.lower


class TestHeuristicCutPool:
    """The batched heuristic search ends on the pairs of the one-start-at-a-time
    search, and its witness is their top, within the rounding bound that
    ``CutAtomSet.scan`` documents."""

    @staticmethod
    def assert_matches_oracle(f, seed):
        """The same A sides; a level within the bound of the oracle's top
        |score|; and a witness among the oracle's pairs whose oracle |score|
        lies within twice the bound of that top."""
        atoms = CutAtomSet(f.shape[0], seed=seed)
        scan = atoms.scan(f)
        assert not scan.exact
        bound = cut_rounding_bound(f) / f.size
        expected = dict(naive_cut_pool(f, seed, CUT_STARTS, CUT_SWEEPS))
        pool = atoms._heuristic_pool(f, cut_rounding_bound(f)) > 0
        assert {tuple(np.flatnonzero(a).tolist()) for a in pool if a.any()} == {
            a for a, _ in expected
        }
        top = max(abs(ip) for ip in expected.values())
        assert abs(scan.lower - top) <= bound
        side = scan.witness.to_json()
        key = (tuple(side["A"]), tuple(side["B"]))
        assert abs(expected[key]) >= top - 2 * bound

    @staticmethod
    def graphs(n, seed):
        rng = np.random.default_rng(seed)
        block = np.arange(n) * 3 // n
        p = np.where(block[:, None] == block[None, :], 0.7, 0.3)
        upper = np.triu(rng.random((n, n)) < p, 1).astype(float)
        return gnp_random_graph(n, 0.5, rng), upper + upper.T

    @staticmethod
    def shuffled_blocks(n, seed):
        """The benchmark's block model (four blocks on shuffled vertices, 0.7
        inside and 0.3 across): the graph, its centring and its residual after
        one weak step."""
        rng = np.random.default_rng(seed)
        block = rng.permutation(np.arange(n) % 4)
        upper = np.triu(rng.random((n, n)) < np.where(block[:, None] == block, 0.7, 0.3), 1)
        g = (upper | upper.T).astype(float)
        key, c = weak_decompose(g, CutAtomSet(n, seed=seed), 0.1).atoms[0]
        return g, g - g.mean(), g - c * key.values()

    @pytest.mark.parametrize("n, seed", [(13, 0), (24, 1), (40, 2), (64, 3)])
    def test_graphs_and_centred_graphs(self, n, seed):
        for g in self.graphs(n, seed):
            self.assert_matches_oracle(g, seed)
            self.assert_matches_oracle(g - g.mean(), seed)

    @pytest.mark.parametrize("n, seed", [(13, 4), (32, 5), (64, 6)])
    def test_residuals_after_one_weak_step(self, n, seed):
        for g in self.graphs(n, seed):
            key, c = weak_decompose(g, CutAtomSet(n, seed=seed), 0.1).atoms[0]
            self.assert_matches_oracle(g - c * key.values(), seed)

    @pytest.mark.parametrize("n, seed", [(128, 7)])
    def test_shuffled_blocks_at_benchmark_size(self, n, seed):
        for f in self.shuffled_blocks(n, seed):
            self.assert_matches_oracle(f, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_shuffled_blocks_with_rounding_level_ties(self, seed):
        # the centring and the residual of these n = 40 graphs have exact
        # sign ties at A = V, which the two summation orders break apart
        # unless ties within the bound take the positive side
        for f in self.shuffled_blocks(40, seed):
            self.assert_matches_oracle(f, seed)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 24, 40])
def test_scan_level_is_the_top_ranked_score(n):
    """Both branches read the level off the witness's own score, so it is
    that score to the last bit, and a direct sum over the witness's outer
    product agrees within the rounding bound."""
    for seed in range(40):
        f = np.random.default_rng(seed).uniform(-1, 1, (n, n))
        scan = CutAtomSet(n, seed=seed).scan(f)
        assert scan.exact == (n <= 12)
        assert scan.lower == abs(scan.value)
        direct = inner_product(f, scan.witness.values())
        assert abs(direct - scan.value) <= cut_rounding_bound(f) / f.size


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), data=st.data())
def test_atom_cells_match_membership_oracle(n, data):
    """Cells read off the stacked masks are the oracle's, ids and signatures
    alike: with no atoms, and with sides that are all or none of V."""
    side = st.one_of(
        st.sampled_from([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    )
    sides = data.draw(st.lists(st.tuples(side, side), max_size=6))
    ids, signatures = _atom_cells(n, [(CutAtom(a, b), 1.0) for a, b in sides])
    index_sets = [(set(np.flatnonzero(a).tolist()), set(np.flatnonzero(b).tolist())) for a, b in sides]
    assert (ids.tolist(), signatures) == naive_atom_cells(n, index_sets)


GREEDY_VALUES = st.one_of(
    st.integers(-4, 4).map(lambda k: k / 2),  # exact sums, so ties between prefixes
    st.floats(-3, 3, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(GREEDY_VALUES, min_size=1, max_size=14),
    slack=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 1.3]),
    data=st.data(),
)
def test_greedy_side_matches_running_sum(values, slack, data):
    minimum = data.draw(st.integers(0, len(values)))
    values = np.array(values)
    expected = naive_greedy_side(values, slack, minimum)
    assert np.array_equal(_greedy_side(values, slack, minimum), expected)


class TestRegularPairCheck:
    def test_complete_bipartite_regular(self):
        g = np.zeros((8, 8))
        g[:4, 4:] = 1
        g[4:, :4] = 1
        for eps in (0.05, 0.3, 0.7):
            verdict = regular_pair_check(g, range(4), range(4, 8), eps, mode="exact")
            assert verdict.status == "regular"

    def test_half_graph_irregular_with_witness(self):
        g = half_graph(16)
        verdict = regular_pair_check(g, range(16), range(16, 32), 0.1, mode="exact")
        assert verdict.status == "irregular"
        w = verdict.witness
        # the witness must be recountable and genuinely violating
        e = count_edges(g, w.rows, w.cols)
        assert e == pytest.approx(w.edges)
        assert abs(e - verdict.density * len(w.rows) * len(w.cols)) > w.threshold

    def test_refuted_verdict_json_keeps_its_fields(self):
        # the report form of a refuted pair, as a hand-written dict of every field
        verdict = regular_pair_check(half_graph(16), range(16), range(16, 32), 0.1, mode="exact")
        w = verdict.witness
        expected = {
            "status": "irregular",
            "mode": "exact",
            "eps": 0.1,
            "density": verdict.density,
            "witness": {
                "rows": list(w.rows),
                "cols": list(w.cols),
                "edges": w.edges,
                "expected": w.expected,
                "deviation": w.deviation,
                "threshold": w.threshold,
            },
            "checked": verdict.checked,
        }
        assert json.dumps(verdict.to_json()) == json.dumps(expected)
        assert json.dumps(w.to_json()) == json.dumps(expected["witness"])

    def test_exact_agrees_with_bruteforce(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            g = gnp_random_graph(14, 0.5, rng)
            rows, cols = list(range(7)), list(range(7, 14))
            for eps in (0.3, 0.45):
                verdict = regular_pair_check(g, rows, cols, eps, mode="exact")
                oracle_status, _ = naive_regular_pair(g, rows, cols, eps)
                assert verdict.status == oracle_status

    def test_sampled_mode(self):
        g = half_graph(16)
        verdict = regular_pair_check(
            g, range(16), range(16, 32), 0.1, mode="sampled", samples=400, seed=5
        )
        assert verdict.mode == "sampled"
        if verdict.status == "irregular":
            w = verdict.witness
            assert w.deviation > w.threshold

    def test_alternating_finds_half_graph_violation(self):
        g = half_graph(16)
        verdict = regular_pair_check(
            g, range(16), range(16, 32), 0.1, mode="alternating", seed=6
        )
        assert verdict.status == "irregular"
        w = verdict.witness
        assert count_edges(g, w.rows, w.cols) == pytest.approx(w.edges)

    def test_exact_size_cap(self):
        g = np.zeros((40, 40))
        with pytest.raises(BudgetExceededError):
            regular_pair_check(g, range(20), range(20, 40), 0.3, mode="exact")

    def test_wholly_regular_graph_has_small_cut_correlation(self):
        # regular-as-a-whole at level eps forces cut correlations of the
        # centered indicator below 4 * eps (exhaustively checked, n <= 12)
        rng = np.random.default_rng(7)
        g = gnp_random_graph(12, 0.5, rng)
        delta = g.mean()
        for eps in (0.3, 0.45):
            verdict = regular_pair_check(g, range(12), range(12), eps, mode="exact")
            if verdict.status != "regular":
                continue
            scan = CutAtomSet(12).scan(g - delta)
            assert scan.exact
            assert scan.lower <= 4 * eps

    def test_unrefuted_whole_pair_keeps_cuts_small_g64(self):
        rng = np.random.default_rng(14)
        g = gnp_random_graph(64, 0.5, rng)
        eps = 0.2
        verdict = regular_pair_check(
            g, range(64), range(64), eps, mode="sampled", samples=300, seed=15
        )
        assert verdict.status == "unrefuted"
        scan = CutAtomSet(64, seed=16).scan(g - g.mean())
        assert scan.lower <= 4 * eps


@settings(max_examples=60, deadline=None)
@given(
    ka=st.integers(1, 8),
    kb=st.integers(1, 8),
    eps=st.integers(10, 50).map(lambda c: c / 100),
    mode=st.sampled_from(["exact", "sampled", "alternating"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_verdict_properties(ka, kb, eps, mode, seed):
    """Witnesses are genuine, recountable sub-pairs listed in ascending order;
    exact verdicts match the brute-force oracle, and only exact mode says
    "regular"."""
    rng = np.random.default_rng(seed)
    g = gnp_random_graph(ka + kb, rng.uniform(0.1, 0.9), rng)
    perm = rng.permutation(ka + kb).tolist()
    rows, cols = perm[:ka], perm[ka:]
    verdict = regular_pair_check(g, rows, cols, eps, mode=mode, seed=seed)
    w = verdict.witness
    assert (verdict.status == "irregular") == (w is not None)
    if w is not None:
        assert set(w.rows) <= set(rows) and set(w.cols) <= set(cols)
        assert len(w.rows) >= math.ceil(eps * ka - 1e-12)
        assert len(w.cols) >= math.ceil(eps * kb - 1e-12)
        assert w.edges == count_edges(g, w.rows, w.cols)
        assert w.deviation > w.threshold
        assert list(w.rows) == sorted(w.rows) and list(w.cols) == sorted(w.cols)
    if mode == "exact":
        assert verdict.status == naive_regular_pair(g, rows, cols, eps)[0]
    else:
        assert verdict.status in ("irregular", "unrefuted")


@settings(max_examples=150, deadline=None)
@given(
    ka=st.integers(1, 12),
    kb=st.integers(1, 12),
    density=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 0.3, 0.9]),
    eps=st.one_of(
        st.sampled_from([0.125, 0.25, 0.5, 0.75]),  # dyadic: scores and prefixes tie exactly
        st.integers(5, 95).map(lambda c: c / 100),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_search_matches_two_sort_oracle(ka, kb, density, eps, seed):
    """One sort per check, shared by both signs, gives the oracle's status,
    witness and checked count, ties between prefixes included."""
    rng = np.random.default_rng(seed)
    n = ka + kb
    g = np.zeros((n, n))
    g[:ka, ka:] = rng.random((ka, kb)) < density
    g[ka:, :ka] = g[:ka, ka:].T
    perm = rng.permutation(n).tolist()
    g = g[np.ix_(np.argsort(perm), np.argsort(perm))]  # vertex perm[i] plays i
    rows, cols = perm[:ka], perm[ka:]
    verdict = regular_pair_check(g, rows, cols, eps, mode="exact")
    status, wit_rows, wit_cols, checked = naive_exact_search(g, rows, cols, eps)
    assert verdict.status == status
    assert verdict.checked == checked
    if status == "irregular":
        assert list(verdict.witness.rows) == wit_rows
        assert list(verdict.witness.cols) == wit_cols


class TestSampledSearch:
    """Sampled mode draws every sub-pair of a pair at once."""

    @staticmethod
    def pair(g, rows, cols, eps):
        block = g[np.ix_(rows, cols)]
        m_a = max(1, math.ceil(eps * len(rows) - 1e-12))
        m_b = max(1, math.ceil(eps * len(cols) - 1e-12))
        return block, float(block.mean()), m_a, m_b

    @pytest.mark.parametrize("ka, kb, eps, seed", [(16, 16, 0.1, 0), (7, 13, 0.3, 1), (1, 5, 0.5, 2)])
    def test_batched_counts_match_per_sample_loop(self, ka, kb, eps, seed):
        rng = np.random.default_rng(seed)
        g = gnp_random_graph(ka + kb, 0.5, rng)
        block, _, m_a, m_b = self.pair(g, range(ka), range(ka, ka + kb), eps)
        r, c, edges = _sampled_draws(block, m_a, m_b, np.random.default_rng(seed), 300)
        assert r.shape == (300, ka) and c.shape == (300, kb)
        assert set(np.unique(r)) <= {0.0, 1.0} and set(np.unique(c)) <= {0.0, 1.0}
        assert (m_a <= r.sum(axis=1)).all() and (r.sum(axis=1) <= ka).all()
        assert (m_b <= c.sum(axis=1)).all() and (c.sum(axis=1) <= kb).all()
        for i in range(300):
            count = count_edges(block, np.flatnonzero(r[i]), np.flatnonzero(c[i]))
            assert edges[i] == count

    @pytest.mark.parametrize("seed", range(4))
    def test_witness_is_first_violating_draw(self, seed):
        g = half_graph(12)
        rows, cols, eps = list(range(12)), list(range(12, 24)), 0.2
        block, delta, m_a, m_b = self.pair(g, rows, cols, eps)
        r, c, _ = _sampled_draws(block, m_a, m_b, np.random.default_rng(seed), 50)
        first = None
        for i in range(50):
            sub_r, sub_c = np.flatnonzero(r[i]), np.flatnonzero(c[i])
            area = len(sub_r) * len(sub_c)
            if abs(count_edges(block, sub_r, sub_c) - delta * area) > eps * area + 1e-9:
                first = i
                break
        assert first is not None and first > 0  # the search has to pass draws over
        verdict = regular_pair_check(g, rows, cols, eps, mode="sampled", samples=50, seed=seed)
        assert verdict.status == "irregular" and verdict.checked == 50
        assert verdict.witness.rows == tuple(rows[i] for i in np.flatnonzero(r[first]))
        assert verdict.witness.cols == tuple(cols[j] for j in np.flatnonzero(c[first]))

    @pytest.mark.parametrize("seed", range(5))
    def test_half_graph_with_planted_deviation_refuted(self, seed):
        # the first half of the rows against the second half of the columns
        # holds every edge, against a pair density below 1/2
        k = 24
        g = half_graph(k)
        verdict = regular_pair_check(
            g, range(k), range(k, 2 * k), 0.1, mode="sampled", samples=200, seed=seed
        )
        assert verdict.status == "irregular"
        w = verdict.witness
        assert w.edges == count_edges(g, w.rows, w.cols)
        assert w.deviation > w.threshold


class TestSzemerediRegularize:
    def test_complete_graph(self):
        n = 32
        g = np.ones((n, n)) - np.eye(n)
        part = szemeredi_regularize(g, 0.4, 2, mode="exact", seed=0)
        assert part.decomposition["cells"] == 1
        for rec in part.pair_records.values():
            assert rec.density == 1.0
            assert rec.status == "regular"
        assert part.irregular_count == 0

    def test_complete_bipartite_refines_sides(self):
        n = 32
        g = np.zeros((n, n))
        g[: n // 2, n // 2 :] = 1
        g[n // 2 :, : n // 2] = 1
        part = szemeredi_regularize(g, 0.3, 2, mode="exact", seed=0)
        left, right = set(range(n // 2)), set(range(n // 2, n))
        for p in part.parts:
            assert set(p) <= left or set(p) <= right
        assert part.irregular_count == 0
        for rec in part.pair_records.values():
            assert rec.density in (0.0, 1.0)

    def test_partition_integrity_random_graph(self):
        rng = np.random.default_rng(8)
        g = gnp_random_graph(128, 0.5, rng)
        part = szemeredi_regularize(g, 0.25, 4, mode="sampled", seed=1)
        sizes = {len(p) for p in part.parts}
        assert len(sizes) == 1
        covered = set(part.exceptional)
        for p in part.parts:
            assert not (covered & set(p))
            covered |= set(p)
        assert covered == set(range(128))
        assert part.num_parts >= 4
        n_atoms = len(part.decomposition["atoms"])
        assert part.num_parts <= 2 * max(4, 4**n_atoms) / 0.25
        assert len(part.exceptional) <= 0.25 * 128 + part.num_parts
        # every part sits inside one structured-atom cell
        ids, _ = _cells_of(part)
        for p, cid in zip(part.parts, part.part_cell):
            assert all(ids[v] == cid for v in p)
        assert part.meets_contract

    def test_too_few_vertices_fails(self):
        rng = np.random.default_rng(9)
        g = gnp_random_graph(8, 0.5, rng)
        with pytest.raises(PreconditionError):
            szemeredi_regularize(g, 0.25, 4, seed=0)


def _cells_of(part):
    def mask(indices):
        return np.isin(np.arange(part.n), indices)

    atoms = [
        (CutAtom(a=mask(d["A"]), b=mask(d["B"])), c)
        for d, c in zip(part.decomposition["atoms"], part.decomposition["coefficients"])
    ]
    return _atom_cells(part.n, atoms)


class TestWeakRegularize:
    def test_single_block(self):
        n = 16
        g = np.zeros((n, n))
        g[:8, 8:] = 1
        g[8:, :8] = 1
        atoms, residual, scan = weak_regularize(g, 0.5)
        assert len(atoms) <= 4
        assert norm(residual) <= 0.51

    def test_empty_graph(self):
        atoms, residual, scan = weak_regularize(np.zeros((16, 16)), 0.25)
        assert atoms == []
        assert norm(residual) == 0.0

    def test_gnp_iteration_bound_and_residual(self):
        rng = np.random.default_rng(10)
        g = gnp_random_graph(64, 0.5, rng)
        atoms, residual, scan = weak_regularize(g, 0.25, seed=2)
        assert len(atoms) <= 16
        assert scan.lower < 0.25
        recon = sum(c * a.values() for a, c in atoms) + residual
        assert norm(recon - g) <= 1e-10

    def test_exhaustive_certificate_n12(self):
        rng = np.random.default_rng(11)
        g = gnp_random_graph(12, 0.5, rng)
        atoms, residual, scan = weak_regularize(g, 0.25)
        assert scan.exact
        assert scan.lower < 0.25

    def test_exhaustive_certificate_matches_bruteforce_small(self):
        rng = np.random.default_rng(13)
        g = gnp_random_graph(6, 0.5, rng)
        atoms, residual, scan = weak_regularize(g, 0.3)
        assert scan.exact
        assert scan.lower == pytest.approx(naive_best_cut(residual), abs=1e-12)

    def test_energy_monotone(self):
        rng = np.random.default_rng(12)
        g = gnp_random_graph(32, 0.5, rng)
        atom_set = CutAtomSet(32, seed=0)
        from structrand import weak_decompose

        dec = weak_decompose(g, atom_set, 0.3)
        energies = [t["energy"] for t in dec.trace]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
