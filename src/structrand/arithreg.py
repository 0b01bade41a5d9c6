"""Regularity of subsets of F_2^n over the translates of a subspace.

The indicator of the set is split by the strong decomposition against the
character family; the kernel of the characters appearing in the structured
part is the subspace V, and each translate y + V gets a density and a
worst-character bias.  The cube is laid out as a table with one row per
translate and one column per setting of the coordinates no constraint leads
on, so every translate's characters come from one batched transform of
length 2^(n-d) along the rows, (n - d) 2^n work in all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube import CharacterAtomSet, f2_row_basis, parity, walsh_hadamard
from .errors import PreconditionError
from .hilbert import EPS_TOL, GrowthFunction, strong_decompose


@dataclass
class CosetEntry:
    representative: int
    size: int
    density: float
    max_bias: float
    regular: bool

    def to_json(self):
        return {
            "representative": self.representative,
            "size": self.size,
            "density": self.density,
            "max_bias": self.max_bias,
            "regular": self.regular,
        }


@dataclass
class CosetReport:
    n: int
    eps: float
    constraints: list
    entries: list
    irregular_count: int
    success: bool
    decomposition: dict = field(default_factory=dict)

    @property
    def codimension(self) -> int:
        return len(self.constraints)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eps": self.eps,
            "constraints": list(self.constraints),
            "codimension": self.codimension,
            "cosets": [e.to_json() for e in self.entries],
            "irregular_count": self.irregular_count,
            "irregular_budget": self.eps * (1 << self.codimension),
            "success": self.success,
            "decomposition": self.decomposition,
        }


def indicator_from_set(n: int, points) -> np.ndarray:
    f = np.zeros(1 << n)
    pts = np.asarray(list(points), dtype=np.int64)
    if pts.size and (pts.min() < 0 or pts.max() >= 1 << n):
        raise PreconditionError("set contains points outside the cube")
    f[pts] = 1.0
    return f


def coset_ids(n: int, basis) -> np.ndarray:
    """Syndrome of every point against the constraint basis (bit i of the id
    is the parity against constraint i)."""
    x = np.arange(1 << n, dtype=np.uint64)
    ids = np.zeros(1 << n, dtype=np.int64)
    for i, b in enumerate(basis):
        ids |= parity(x & np.uint64(int(b))) << i
    return ids


def coset_entries(f, n: int, basis, eps: float) -> list:
    """Density, first point and worst character bias of every translate.

    ``basis`` is an echelon basis of the d constraints (distinct leading
    bits).  The cube is laid out as a (2^d, 2^(n-d)) table: point x goes to
    row coset_ids(x) and to the column its free bits (those no row leads on)
    spell.  Within a row the free bits fix the leading ones, so the row lists
    one translate along an affine bijection with F_2^(n-d), and the
    characters of F_2^n restricted to it are the characters of the column
    index: one transform along the rows gives every bias.
    """
    d = len(basis)
    x = np.arange(1 << n, dtype=np.int64)
    col = x  # x with its leading bits cut out, highest first
    for lead in sorted((int(b).bit_length() - 1 for b in basis), reverse=True):
        col = (col >> (lead + 1) << lead) | (col & ((1 << lead) - 1))
    points = np.empty((1 << d, 1 << (n - d)), dtype=np.int64)
    points[coset_ids(n, basis), col] = x
    rows = np.asarray(f, dtype=float)[points]
    density = rows.mean(axis=1)
    bias = np.abs(walsh_hadamard(rows - density[:, None])).max(axis=1)
    return [
        CosetEntry(
            representative=int(rep),
            size=points.shape[1],
            density=float(dens),
            max_bias=float(b),
            regular=bool(b <= eps + EPS_TOL),
        )
        for rep, dens, b in zip(points.min(axis=1), density, bias)
    ]


def arithmetic_regularize(A, n: int, eps: float) -> CosetReport:
    """Find a subspace on most of whose translates the set looks Fourier-flat.

    ``A`` is an iterable of points or a dense 0/1 array.  The returned report
    marks a translate regular when every character average of (1_A - density)
    over it is at most eps; success means at most eps * 2^d translates fail.
    """
    if not 0 < eps <= 1:
        raise PreconditionError("eps must lie in (0, 1]")
    arr = np.asarray(A)
    if arr.dtype.kind in "bf" and arr.size == 1 << n:
        f = arr.astype(float)
        if not np.all((f == 0) | (f == 1)):
            raise PreconditionError("dense input must be a 0/1 indicator")
    else:
        f = indicator_from_set(n, A)
    growth = GrowthFunction.arithmetic_regularity(eps)
    dec = strong_decompose(f, CharacterAtomSet(n), eps, growth)
    basis = f2_row_basis(k for k, _ in dec.atoms)
    d = len(basis)
    entries = coset_entries(f, n, basis, eps)
    irregular = sum(not e.regular for e in entries)
    return CosetReport(
        n=n,
        eps=eps,
        constraints=[int(b) for b in basis],
        entries=entries,
        irregular_count=irregular,
        success=irregular <= eps * (1 << d) + EPS_TOL,
        decomposition={
            "growth": growth.name,
            "growth_M": dec.growth_m,
            "atoms": len(dec.atoms),
            "stages": len(dec.stages or []),
            "pseudorandomness_eps": dec.pseudorandomness_eps,
            "pseudo_found": dec.pseudo_found,
            "error_norm_bound": dec.error_norm,
        },
    )
