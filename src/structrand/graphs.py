"""Graphs as functions on V x V, cut-product atoms, and regular partitions.

A graph is its 0/1 adjacency matrix viewed inside the averaging inner-product
space on V x V; the structured directions are products 1_A(v) 1_B(w).  The
cut family has 4^n members, so its violating-atom search is alternating
maximization (definitive exhaustion over A for n <= 12, flagged heuristic
beyond).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .hilbert import (
    EPS_TOL,
    AtomSet,
    CorrelationScan,
    GrowthFunction,
    strong_decompose,
    weak_decompose,
)

MAX_GRAPH_N = 4096  # vertices; n^2 = 2^24 cells, as the cube cap
EXHAUSTIVE_CUT_LIMIT = 12  # all 2^n side-sets are enumerated up to here
EXACT_PAIR_LIMIT = 16  # exact regularity verdicts enumerate 2^|A| subsets
CUT_STARTS = 64  # random restarts of the heuristic cut search, besides A = V
CUT_SWEEPS = 40  # alternation rounds per cut-search start
PAIR_RESTARTS = 8  # random starts per sign of the alternating pair search
PAIR_SWEEPS = 25  # alternation rounds per pair-search start
_PAIR_MODES = ("exact", "sampled", "alternating")


def graph_from_edges(n: int, edges) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with an empty diagonal (self-loops dropped)."""
    if n > MAX_GRAPH_N:
        raise BudgetExceededError(f"n = {n} exceeds the graph cap {MAX_GRAPH_N}")
    ends = np.asarray(edges).reshape(-1, 2)  # object dtype holds indices past int64
    outside = ((ends < 0) | (ends >= n)).any(axis=1)
    if outside.any():
        u, v = ends[np.argmax(outside)]
        raise PreconditionError(f"edge ({int(u)}, {int(v)}) outside 0..{n - 1}")
    u, v = ends.T.astype(np.intp)
    g = np.zeros((n, n))
    g[u, v] = g[v, u] = 1.0
    np.fill_diagonal(g, 0.0)
    return g


def gnp_random_graph(n: int, p: float, rng) -> np.ndarray:
    """An Erdos-Renyi sample as an adjacency matrix."""
    upper = rng.random((n, n)) < p
    g = np.triu(upper, 1).astype(float)
    return g + g.T


def edge_density(g, rows, cols) -> float:
    """Edge density of the block rows x cols (exact count over the product)."""
    rows = np.asarray(sorted(rows), dtype=int)
    cols = np.asarray(sorted(cols), dtype=int)
    if rows.size == 0 or cols.size == 0:
        raise PreconditionError("edge density needs non-empty parts")
    block = np.asarray(g)[np.ix_(rows, cols)]
    return float(block.sum() / (rows.size * cols.size))


@dataclass(frozen=True, eq=False)
class CutAtom:
    """The tensor product (v, w) -> 1_A(v) 1_B(w); A and B are held as
    read-only boolean masks over the vertices."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for side in "a", "b":
            object.__setattr__(self, side, np.asarray(getattr(self, side), dtype=bool).view())
            getattr(self, side).flags.writeable = False

    def values(self) -> np.ndarray:
        return np.outer(self.a, self.b).astype(float)

    def to_json(self):
        return {"A": np.flatnonzero(self.a).tolist(), "B": np.flatnonzero(self.b).tolist()}


@functools.cache
def _subset_table(k):
    """(masks, sizes) for the 2^k subsets of k items, built once per k and
    shared read-only: row a of masks is the 0/1 indicator of the bits of a,
    and sizes[a] is its bit count."""
    bytes_le = np.arange(1 << k, dtype="<u4").view(np.uint8).reshape(-1, 4)
    masks = np.unpackbits(bytes_le, axis=1, count=k, bitorder="little").astype(float)
    sizes = np.bitwise_count(np.arange(1 << k, dtype=np.uint64)).astype(float)
    masks.flags.writeable = sizes.flags.writeable = False
    return masks, sizes


def _best_sides(sums, tol):
    """Row by row, the better side's value and sign: the sum of the positive
    entries (+1) or of the negative ones (-1), whichever is larger, the
    positive one when they lie within ``tol``; its mask is sums * sign > 0."""
    plus = np.maximum(sums, 0.0).sum(axis=1)
    minus = np.minimum(sums, 0.0).sum(axis=1)
    take_plus = plus + minus >= -tol
    return np.where(take_plus, plus, minus), np.where(take_plus, 1.0, -1.0)


def _distinct_rows(masks):
    """(first, ids) for the rows of a boolean matrix with columns: each distinct
    row's first index, in row order, and each row's position in that list."""
    keys = np.ascontiguousarray(np.packbits(masks, axis=1))
    keys = keys.view(f"V{keys.shape[1]}").ravel()  # one byte string per row
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]  # argsort inverts the permutation


class CutAtomSet(AtomSet):
    """Cut products searched by alternating maximization.

    For n <= 12 the search enumerates every A (the optimal B given A is
    closed-form), so scans are definitive; beyond that it runs CUT_STARTS
    random restarts plus the all-vertices start and is flagged heuristic.
    """

    def __init__(self, n: int, seed: int = 0):
        self.n = int(n)
        self.exact = self.n <= EXHAUSTIVE_CUT_LIMIT
        self.seed = seed
        self.name = f"cut-products(n={n}, {'exact' if self.exact else 'heuristic'})"

    def atom_vector(self, key: CutAtom):
        return key.values()

    def key_json(self, key: CutAtom):
        return key.to_json()

    def _heuristic_pool(self, f, tol):
        """The distinct A rows, in start order, that alternating maximization
        ends on from all starts as one batch (each half-sweep is one matrix
        product): a sweep takes the best B for each row's A, then the best A
        for that B, and a row stops (keeping its A) once its value no longer
        grows by more than ``tol``."""
        starts = np.random.default_rng(self.seed).random((CUT_STARTS, self.n)) < 0.5
        a = np.vstack([np.ones(self.n, dtype=bool), starts]).astype(float)
        prev = np.zeros(len(a))
        live = np.arange(len(a))
        for _ in range(CUT_SWEEPS):
            cols = a[live] @ f
            b = cols * _best_sides(cols, tol)[1][:, None] > 0
            rows = b.astype(float) @ f.T
            v2, sign = _best_sides(rows, tol)
            grew = np.abs(v2) > np.abs(prev[live]) + tol
            live = live[grew]
            a[live], prev[live] = rows[grew] * sign[grew, None] > 0, v2[grew]
            if not live.size:
                break
        return a[_distinct_rows(a > 0)[0]]

    def scan(self, f):
        """One body for both branches, which differ only in where the A rows
        come from: the subset table, or the distinct ends of the heuristic
        search.  Each row's column sums give its best B and its score
        a^T f b / n^2; the witness is the row of largest |score|, exact ties
        going to the earlier row, and only its B mask is built.

        Tolerance: a score sums its |A| |B| terms f[v, w] as column sums and
        then one sum of n terms, off by at most 2n 2^-53 max|f| to first order
        (after division by n^2); one n^2-term dot with the outer product is
        off by at most n^2 2^-53 max|f|.  So the two routes differ by at most
        (n^2 + 2n) 2^-53 max|f|, and side choices and growth steps within that
        bound (times n^2) are ties: a tie takes the positive side and ends a
        start's sweeps.
        """
        f = np.asarray(f, dtype=float)
        tol = (self.n**2 + 2 * self.n) * 2.0**-53 * float(np.abs(f).max()) * f.size
        a = _subset_table(self.n)[0] if self.exact else self._heuristic_pool(f, tol)
        cols = a @ f
        values, sign = _best_sides(cols, tol)
        scores = values / f.size
        best = int(np.argmax(np.abs(scores)))
        value = float(scores[best])
        witness = CutAtom(a[best] > 0, cols[best] * sign[best] > 0)
        upper = abs(value) if self.exact else float(np.abs(f).mean())  # |<f, 1_{AxB}>| <= mean |f|
        return CorrelationScan(value, upper, self.exact, witness)

    # defined on the class itself so that per-class wrappers can replace it
    candidates = AtomSet.candidates


# --- regular pairs -----------------------------------------------------------


@dataclass
class PairWitness:
    rows: tuple
    cols: tuple
    edges: float
    expected: float
    deviation: float
    threshold: float

    def to_json(self):
        return asdict(self)


@dataclass
class PairVerdict:
    status: str  # "regular" | "irregular" | "unrefuted"
    mode: str
    eps: float
    density: float
    witness: PairWitness | None = None
    checked: int = 0

    def to_json(self):
        return asdict(self)


def _pair_witness(rows, cols, block, sel_r, sel_c, delta, eps):
    """The sub-pair at block positions (sel_r, sel_c), recounted from the block."""
    edges = float(block[np.ix_(sel_r, sel_c)].sum())
    expected = delta * len(sel_r) * len(sel_c)
    return PairWitness(
        rows=tuple(sorted(int(rows[i]) for i in sel_r)),
        cols=tuple(sorted(int(cols[j]) for j in sel_c)),
        edges=edges,
        expected=expected,
        deviation=abs(edges - expected),
        threshold=eps * len(sel_r) * len(sel_c),
    )


def _greedy_side(values, slack, minimum):
    """Entries maximizing sum(values - slack) subject to a minimum count: the
    shortest best prefix, of at least that count, in descending order."""
    order = np.argsort(-(values - slack))
    first = max(1, minimum)
    gains = np.cumsum(values[order] - slack)
    return order[: first + int(np.argmax(gains[first - 1 :]))]


def _exact_search(rows, cols, block, delta, eps, m_a, m_b):
    """Every row subset A' of at least m_a rows, each with its best B' in
    closed form: sort the columns by e(A', {w}) - delta |A'| and take the best
    prefix of at least m_b of them, for either sign of the deviation.

    Both signs' scores are monotone in the column sums e(A', {w}), so one sort
    of the sums orders both.  The sorted sums are read as |cols| x 2^|rows|,
    so each prefix-sum step and the maxima run across all subsets at once."""
    masks, sizes = _subset_table(len(rows))
    sums = masks @ block  # sums[mask, w] = e(A', {w})
    shift, slack = delta * sizes, eps * sizes
    ranked = np.sort(sums, axis=1)
    np.subtract(ranked, shift[:, None], out=ranked)  # t = sums - shift, ascending
    t_desc = ranked.T[::-1]  # t_desc[j, mask]: the (j+1)-th largest t of A'
    prefix = np.empty(t_desc.shape)  # one work array, written in place below
    admissible = sizes >= m_a
    checked = 0
    for side in (+1, -1):
        # descending scores: t - slack, or -(t + slack) = -slack - t
        if side > 0:
            np.subtract(t_desc, slack, out=prefix)
        else:
            np.subtract(-slack, t_desc[::-1], out=prefix)
        for j in range(1, len(prefix)):  # cumsum by rows: np.cumsum(axis=0) goes lane by lane
            np.add(prefix[j - 1], prefix[j], out=prefix[j])
        best = np.max(prefix[m_b - 1 :], axis=0)
        best[~admissible] = -np.inf
        checked += int(np.count_nonzero(admissible))
        violating = np.flatnonzero(best > 1e-9)
        if violating.size:
            mask = int(violating[np.argmax(best[violating])])
            sel_r = np.flatnonzero((mask >> np.arange(len(rows))) & 1)
            t_mask = sums[mask] - shift[mask]
            sel_c = _greedy_side(side * t_mask, eps * sel_r.size, m_b)
            return _pair_witness(rows, cols, block, sel_r, sel_c, delta, eps), checked
    return None, checked


def _uniform_subsets(rng, k, sizes):
    """0/1 rows, row i a uniform subset of sizes[i] of k items: the items
    whose ranks in one row of a uniform random matrix fall below the size."""
    order = np.argsort(rng.random((len(sizes), k)), axis=1)
    masks = np.empty((len(sizes), k))
    np.put_along_axis(masks, order, np.arange(k) < sizes[:, None], axis=1)
    return masks


def _sampled_draws(block, m_a, m_b, rng, samples):
    """(row masks, column masks, edge counts) of ``samples`` uniformly drawn
    sub-pairs of admissible sizes, one per row; all the sizes are drawn first."""
    ka = rng.integers(m_a, block.shape[0] + 1, size=samples)
    kb = rng.integers(m_b, block.shape[1] + 1, size=samples)
    r = _uniform_subsets(rng, block.shape[0], ka)
    c = _uniform_subsets(rng, block.shape[1], kb)
    return r, c, ((r @ block) * c).sum(axis=1)


def _sampled_search(rows, cols, block, delta, eps, m_a, m_b, rng, samples):
    """``samples`` uniformly drawn sub-pairs of admissible sizes; the witness
    is the first violating draw."""
    r, c, edges = _sampled_draws(block, m_a, m_b, rng, samples)
    ka, kb = r.sum(axis=1), c.sum(axis=1)
    violating = np.flatnonzero(np.abs(edges - delta * ka * kb) > eps * ka * kb + 1e-9)
    if violating.size:
        i = violating[0]
        sel_r, sel_c = np.flatnonzero(r[i]), np.flatnonzero(c[i])
        return _pair_witness(rows, cols, block, sel_r, sel_c, delta, eps), samples
    return None, samples


def _alternating_search(rows, cols, block, delta, eps, m_a, m_b, rng):
    """Alternate best-response row and column picks on the signed, centred
    block from random column starts; keep the most violating sub-pair."""
    best, best_excess = None, 1e-9
    for sign in (+1, -1):
        centered = sign * (block - delta)
        for _ in range(PAIR_RESTARTS):
            sel_c = np.flatnonzero(rng.random(len(cols)) < 0.5)
            if sel_c.size < m_b:
                sel_c = np.arange(len(cols))
            for _ in range(PAIR_SWEEPS):
                row_vals = centered[:, sel_c].sum(axis=1)
                sel_r = _greedy_side(row_vals, eps * sel_c.size, m_a)
                col_vals = centered[sel_r, :].sum(axis=0)
                new_c = _greedy_side(col_vals, eps * sel_r.size, m_b)
                converged = np.array_equal(np.sort(new_c), np.sort(sel_c))
                sel_c = new_c
                if converged:
                    break
            edges = float(block[np.ix_(sel_r, sel_c)].sum())
            excess = abs(edges - delta * sel_r.size * sel_c.size) - eps * sel_r.size * sel_c.size
            if excess > best_excess:
                best, best_excess = (sel_r, sel_c), excess
    witness = None if best is None else _pair_witness(rows, cols, block, *best, delta, eps)
    return witness, PAIR_RESTARTS


def regular_pair_check(g, rows, cols, eps, mode="exact", samples=200, seed=0):
    """Verdict on eps-regularity of the pair (rows, cols).

    Exact mode (parts of at most 16 vertices) enumerates every admissible
    row subset, with the optimal column subset found in closed form, and is
    definitive; sampled mode tests ``samples`` random admissible sub-pairs;
    alternating mode climbs the deviation functional.  Only exact mode can
    return "regular": the other two say "unrefuted" when they find nothing.
    Irregular verdicts always carry a recountable witness.
    """
    rows, cols = list(rows), list(cols)
    if len(rows) < 1 or len(cols) < 1:
        raise PreconditionError("parts must be non-empty")
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    if mode not in _PAIR_MODES:
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "exact" and len(rows) > EXACT_PAIR_LIMIT:
        raise BudgetExceededError(f"exact mode caps parts at {EXACT_PAIR_LIMIT} vertices")
    block = np.asarray(g)[np.ix_(rows, cols)]
    delta = float(block.mean())
    m_a = max(1, math.ceil(eps * len(rows) - 1e-12))
    m_b = max(1, math.ceil(eps * len(cols) - 1e-12))
    rng = np.random.default_rng(seed)
    pair = (rows, cols, block, delta, eps, m_a, m_b)
    if mode == "exact":
        witness, checked = _exact_search(*pair)
    elif mode == "sampled":
        witness, checked = _sampled_search(*pair, rng, samples)
    else:
        witness, checked = _alternating_search(*pair, rng)
    status = "irregular" if witness else "regular" if mode == "exact" else "unrefuted"
    return PairVerdict(
        status=status, mode=mode, eps=eps, density=delta, witness=witness, checked=checked
    )


# --- partitions --------------------------------------------------------------


@dataclass
class RegularityPartition:
    n: int
    eps: float
    m_requested: int
    exceptional: list
    parts: list
    part_cell: list
    cell_signatures: list
    pair_records: dict
    irregular_count: int
    meets_contract: bool
    decomposition: dict = field(default_factory=dict)

    @property
    def num_parts(self):
        return len(self.parts)

    def densities(self) -> dict:
        return {k: v.density for k, v in self.pair_records.items()}

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eps": self.eps,
            "m_requested": self.m_requested,
            "num_parts": self.num_parts,
            "exceptional": list(self.exceptional),
            "parts": [list(p) for p in self.parts],
            "part_cell": list(self.part_cell),
            "pairs": {f"{i},{j}": rec.to_json() for (i, j), rec in self.pair_records.items()},
            "irregular_count": self.irregular_count,
            "irregular_budget": self.eps * self.num_parts**2,
            "meets_contract": self.meets_contract,
            "decomposition": self.decomposition,
        }


def _atom_cells(n, atoms):
    """Cell id per vertex from membership in every selected A_i and B_i; ids
    follow each cell's first vertex, and a cell's signature lists its
    (in A_i, in B_i) bits."""
    if not atoms:
        return np.zeros(n, dtype=int), [()]
    member = np.array([m for atom, _ in atoms for m in (atom.a, atom.b)]).T  # vertex x side
    first, ids = _distinct_rows(member)
    return ids, [tuple(zip(r[::2], r[1::2])) for r in member[first].astype(int).tolist()]


def szemeredi_regularize(
    g,
    eps: float,
    m: int,
    mode: str = "sampled",
    seed: int = 0,
) -> RegularityPartition:
    """Equitable partition with most pairs eps-regular.

    The adjacency indicator is decomposed against cut products; vertices are
    grouped by the cells the structured atoms carve out, cells are chopped
    into equal parts (leftovers to the exceptional set), and every pair gets
    a regularity verdict in the requested mode.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    if m < 1:
        raise PreconditionError("m must be at least 1")
    if mode not in _PAIR_MODES:  # checked here too: with one part no pair is checked
        raise PreconditionError(f"unknown mode {mode!r}")
    growth = GrowthFunction.arithmetic_regularity(eps)
    atoms = CutAtomSet(n, seed=seed)
    dec = strong_decompose(g, atoms, eps, growth)
    cell_ids, signatures = _atom_cells(n, dec.atoms)
    n_cells = len(signatures)
    required = math.ceil(4 * n_cells * max(m, 1.0 / eps))
    if n < required:
        raise PreconditionError(
            f"vertex count {n} too small for the refinement: need n >= {required}"
        )
    size = max(1, min(int(eps * n / n_cells), n // m))
    parts, part_cell, exceptional = [], [], []
    for cid in range(n_cells):
        members = [int(v) for v in np.flatnonzero(cell_ids == cid)]
        while len(members) >= size:
            parts.append(members[:size])
            part_cell.append(cid)
            members = members[size:]
        exceptional.extend(members)
    m_prime = len(parts)
    if m_prime < m:
        raise PreconditionError(
            f"construction produced {m_prime} < m = {m} parts; need more vertices"
        )
    records, irregular = {}, 0
    for i in range(m_prime):
        for j in range(i + 1, m_prime):
            verdict = regular_pair_check(
                g, parts[i], parts[j], eps, mode=mode, seed=seed * 1_000_003 + i * 1009 + j
            )
            if verdict.status == "unrefuted":
                verdict.status = "regular"
            records[(i, j)] = verdict
            if verdict.status == "irregular":
                irregular += 1
    return RegularityPartition(
        n=n,
        eps=eps,
        m_requested=m,
        exceptional=exceptional,
        parts=parts,
        part_cell=part_cell,
        cell_signatures=signatures,
        pair_records=records,
        irregular_count=irregular,
        meets_contract=irregular <= eps * m_prime**2 + EPS_TOL,
        decomposition={
            "growth": growth.name,
            "growth_M": dec.growth_m,
            "atoms": [a.to_json() for a, _ in dec.atoms],
            "coefficients": [c for _, c in dec.atoms],
            "pseudorandomness_eps": dec.pseudorandomness_eps,
            "pseudo_exact": dec.pseudo_exact,
            "cells": n_cells,
        },
    )


def weak_regularize(g, eps: float, seed: int = 0):
    """Cut decomposition with at most 1/eps^2 atoms and a pseudorandom rest.

    Returns (atom list with coefficients, residual, certificate scan); the
    residual certificate is definitive for n <= 12 and flagged heuristic
    otherwise.
    """
    g = np.asarray(g, dtype=float)
    if not 0 < eps <= 1:
        raise PreconditionError("eps must lie in (0, 1]")
    atoms = CutAtomSet(g.shape[0], seed=seed)
    dec = weak_decompose(g, atoms, eps)
    return list(dec.atoms), dec.f_psd, dec.scan
