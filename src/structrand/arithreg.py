"""Regularity of subsets of F_2^n over the translates of a subspace.

The indicator of the set is split by the strong decomposition against the
character family; the kernel of the characters appearing in the structured
part is the subspace V, and each translate y + V gets a density and a
worst-character bias, measured exactly with a masked transform.
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


def coset_bias(f_centered_masked: np.ndarray, coset_size: int) -> float:
    """Worst character average over a coset, from the masked transform."""
    spec = walsh_hadamard(f_centered_masked)
    return float(np.max(np.abs(spec))) * f_centered_masked.size / coset_size


def arithmetic_regularize(
    A,
    n: int,
    eps: float,
    growth: GrowthFunction | None = None,
) -> CosetReport:
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
    atoms = CharacterAtomSet(n)
    if growth is None:
        growth = GrowthFunction.arithmetic_regularity(eps)
    dec = strong_decompose(f, atoms, eps, growth)
    basis = f2_row_basis(k for k, _ in dec.atoms)
    d = len(basis)
    ids = coset_ids(n, basis)
    entries = []
    irregular = 0
    for cid in range(1 << d):
        mask = ids == cid
        size = int(mask.sum())
        density = float(f[mask].mean())
        centered = np.where(mask, f - density, 0.0)
        bias = coset_bias(centered, size)
        regular = bias <= eps + EPS_TOL
        if not regular:
            irregular += 1
        entries.append(
            CosetEntry(
                representative=int(np.flatnonzero(mask)[0]),
                size=size,
                density=density,
                max_bias=bias,
                regular=regular,
            )
        )
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
