"""Graphs as functions on V x V, cut-product atoms, and regular partitions.

A graph is its 0/1 adjacency matrix viewed inside the averaging inner-product
space on V x V; the structured directions are products 1_A(v) 1_B(w).  The
cut family has 4^n members, so its violating-atom search is alternating
maximization (definitive exhaustion over A for n <= 12, flagged heuristic
beyond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .hilbert import (
    EPS_TOL,
    MIN_CORR,
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


def graph_from_edges(n: int, edges) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with an empty diagonal."""
    if n > MAX_GRAPH_N:
        raise BudgetExceededError(f"n = {n} exceeds the graph cap {MAX_GRAPH_N}")
    g = np.zeros((n, n))
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            continue
        g[u, v] = 1.0
        g[v, u] = 1.0
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


@dataclass(frozen=True)
class CutAtom:
    """The tensor product (v, w) -> 1_A(v) 1_B(w)."""

    a: frozenset
    b: frozenset
    n: int

    def values(self) -> np.ndarray:
        va = np.zeros(self.n)
        vb = np.zeros(self.n)
        va[sorted(self.a)] = 1.0
        vb[sorted(self.b)] = 1.0
        return np.outer(va, vb)

    def to_json(self):
        return {"A": sorted(self.a), "B": sorted(self.b)}


def _subset_sums(block):
    """(masks, masks @ block): row a of masks is the 0/1 indicator of the bits
    of a, so row a of the product sums the block's rows over that subset."""
    k = block.shape[0]
    bytes_le = np.arange(1 << k, dtype="<u4").view(np.uint8).reshape(-1, 4)
    masks = np.unpackbits(bytes_le, axis=1, count=k, bitorder="little").astype(float)
    return masks, masks @ block


def _best_b_given_cols(colsums):
    """Optimal B for both signs given column sums; returns (value, mask)."""
    pos = colsums > 0
    neg = colsums < 0
    vplus = float(colsums[pos].sum())
    vminus = float(colsums[neg].sum())
    if vplus >= -vminus:
        return vplus, pos
    return vminus, neg


class CutAtomSet(AtomSet):
    """Cut products searched by alternating maximization.

    For n <= 12 the search enumerates every A (the optimal B given A is
    closed-form), so scans are definitive; beyond that it runs CUT_STARTS
    random restarts plus the all-vertices start and is flagged heuristic.
    """

    max_candidates = 32

    def __init__(self, n: int, seed: int = 0):
        self.n = int(n)
        self.exact = self.n <= EXHAUSTIVE_CUT_LIMIT
        self.seed = seed
        self.name = f"cut-products(n={n}, {'exact' if self.exact else 'heuristic'})"

    def atom_vector(self, key: CutAtom):
        return key.values()

    def key_json(self, key: CutAtom):
        return key.to_json()

    def _atom(self, amask_bool, bmask_bool):
        return CutAtom(
            a=frozenset(int(i) for i in np.flatnonzero(amask_bool)),
            b=frozenset(int(i) for i in np.flatnonzero(bmask_bool)),
            n=self.n,
        )

    def _exhaustive(self, f):
        masks, cols = _subset_sums(f)  # row a-mask -> column sums over A
        vplus = np.maximum(cols, 0.0).sum(axis=1)
        vminus = np.minimum(cols, 0.0).sum(axis=1)
        strength = np.maximum(vplus, -vminus) / (self.n * self.n)
        return masks, cols, strength

    def _alternate(self, f, a_bool):
        prev = 0.0
        for _ in range(CUT_SWEEPS):
            cols = a_bool.astype(float) @ f
            v, b_bool = _best_b_given_cols(cols)
            rows = f @ b_bool.astype(float)
            v2, a_new = _best_b_given_cols(rows)
            if abs(v2) <= abs(prev) + 1e-15:
                break
            a_bool = a_new
            prev = v2
        cols = a_bool.astype(float) @ f
        value, b_bool = _best_b_given_cols(cols)
        return a_bool, b_bool, value / (self.n * self.n)

    def _heuristic_pool(self, f):
        rng = np.random.default_rng(self.seed)
        found = {}
        starts = [np.ones(self.n, dtype=bool)]
        starts += [rng.random(self.n) < 0.5 for _ in range(CUT_STARTS)]
        for a0 in starts:
            if not a0.any():
                continue
            a_bool, b_bool, _ = self._alternate(f, a0.copy())
            if not a_bool.any() or not b_bool.any():
                continue
            atom = self._atom(a_bool, b_bool)
            ip = float(atom.values().ravel() @ f.ravel() / f.size)
            found[atom] = ip
        return sorted(found.items(), key=lambda kv: -abs(kv[1]))

    def scan(self, f):
        f = np.asarray(f, dtype=float)
        if self.exact:
            masks, cols, strength = self._exhaustive(f)
            order = np.argsort(-strength)[: self.max_candidates]
            ranking = []
            for idx in order[strength[order] >= MIN_CORR]:
                value, b_bool = _best_b_given_cols(cols[idx])
                atom = self._atom(masks[idx].astype(bool), b_bool)
                ranking.append((atom, value / (self.n * self.n)))
            level = float(strength[order[0]])
            upper, exact = level, True
        else:
            ranking = self._heuristic_pool(f)[: self.max_candidates]
            level = abs(ranking[0][1]) if ranking else 0.0
            upper, exact = float(np.abs(f).mean()), False  # |<f, 1_{AxB}>| <= mean |f| always
        witness = ranking[0][0] if ranking else None
        return CorrelationScan(level, upper, exact, witness, ranking)

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
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "edges": self.edges,
            "expected": self.expected,
            "deviation": self.deviation,
            "threshold": self.threshold,
        }


@dataclass
class PairVerdict:
    status: str  # "regular" | "irregular" | "unrefuted"
    mode: str
    eps: float
    density: float
    witness: PairWitness | None = None
    checked: int = 0

    def to_json(self):
        return {
            "status": self.status,
            "mode": self.mode,
            "eps": self.eps,
            "density": self.density,
            "witness": self.witness.to_json() if self.witness else None,
            "checked": self.checked,
        }


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
    """Entries maximizing sum(values - slack) subject to a minimum count."""
    order = np.argsort(-(values - slack))
    best_val, best_k = -np.inf, max(1, minimum)
    running = 0.0
    for rank, j in enumerate(order, start=1):
        running += values[j] - slack
        if rank >= max(1, minimum) and running > best_val:
            best_val, best_k = running, rank
    return order[:best_k]


def _exact_search(rows, cols, block, delta, eps, m_a, m_b):
    """Every row subset A' of at least m_a rows, each with its best B' in
    closed form: sort the columns by e(A', {w}) - delta |A'| and take the best
    prefix of at least m_b of them, for either sign of the deviation."""
    sums = _subset_sums(block)[1]
    sizes = np.bitwise_count(np.arange(len(sums), dtype=np.uint64)).astype(float)
    t = sums - delta * sizes[:, None]  # t[mask, w] = e(A', {w}) - delta |A'|
    slack = eps * sizes[:, None]
    admissible = sizes >= m_a
    checked = 0
    for side in (+1, -1):
        scores = t - slack if side > 0 else -(t + slack)
        prefix = np.cumsum(-np.sort(-scores, axis=1), axis=1)
        best = np.max(prefix[:, m_b - 1 :], axis=1)
        best[~admissible] = -np.inf
        checked += int(np.count_nonzero(admissible))
        violating = np.flatnonzero(best > 1e-9)
        if violating.size:
            mask = int(violating[np.argmax(best[violating])])
            sel_r = np.flatnonzero((mask >> np.arange(len(rows))) & 1)
            sel_c = _greedy_side(side * t[mask], eps * sel_r.size, m_b)
            return _pair_witness(rows, cols, block, sel_r, sel_c, delta, eps), checked
    return None, checked


def _sampled_search(rows, cols, block, delta, eps, m_a, m_b, rng, samples):
    """``samples`` uniformly drawn sub-pairs of admissible sizes."""
    for _ in range(samples):
        ka = int(rng.integers(m_a, len(rows) + 1))
        kb = int(rng.integers(m_b, len(cols) + 1))
        sel_r = rng.choice(len(rows), size=ka, replace=False)
        sel_c = rng.choice(len(cols), size=kb, replace=False)
        edges = float(block[np.ix_(sel_r, sel_c)].sum())
        if abs(edges - delta * ka * kb) > eps * ka * kb + 1e-9:
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
    if mode not in ("exact", "sampled", "alternating"):
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
    """Cell id per vertex from membership in every selected A_i and B_i."""
    signatures = {}
    ids = []
    for v in range(n):
        sig = tuple((int(v in atom.a), int(v in atom.b)) for atom, _ in atoms)
        ids.append(signatures.setdefault(sig, len(signatures)))
    return np.array(ids), [s for s, _ in sorted(signatures.items(), key=lambda kv: kv[1])]


def szemeredi_regularize(
    g,
    eps: float,
    m: int,
    mode: str = "sampled",
    growth: GrowthFunction | None = None,
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
    if growth is None:
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
    parts = []
    part_cell = []
    exceptional = []
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
    records = {}
    irregular = 0
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
