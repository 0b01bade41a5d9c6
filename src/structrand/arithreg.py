"""Regularity of subsets of F_2^n over the translates of a subspace.

Green's refinement: from the whole cube, while more than eps * 2^d translates
of V are irregular, each one's worst character joins the constraints cutting
V out.  Splitting a translate C along it raises the index energy
sum_C mu(C) density_C^2 by mu(C) bias^2, so a round gains more than eps^3 and
adds a constraint.  Translates are the rows of a table whose columns set the
coordinates no constraint leads on, so one transform along the rows gives
every translate's characters, (n - d) 2^n work per round.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cube import MAX_CUBE_N, _f2_table, f2_matvec_table, f2_row_basis, walsh_hadamard
from .errors import BudgetExceededError, CertificateError, PreconditionError
from .hilbert import EPS_TOL


@dataclass
class CosetEntry:
    representative: int
    size: int
    density: float
    max_bias: float
    regular: bool
    witness: int  # a character of F_2^n whose bias on the coset is max_bias

    def to_json(self):
        return asdict(self)


@dataclass
class CosetReport:
    n: int
    eps: float
    constraints: list
    entries: list
    irregular_count: int
    success: bool
    rounds: list

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
            "rounds": self.rounds,
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
    is the parity against constraint i): the table of the constraint matrix."""
    rows = np.array(basis, dtype=np.int64).reshape(-1, 1)
    return f2_matvec_table((rows >> np.arange(n)) & 1)  # row i: bits of constraint i


def coset_entries(f, n: int, basis, eps: float) -> list:
    """Density, first point, worst character and its bias on every translate.

    ``basis`` is an echelon basis of the d constraints (distinct leading
    bits).  The cube is laid out as a (2^d, 2^(n-d)) table: point x goes to
    row coset_ids(x) and to the column its free bits (those no row leads on)
    spell.  Within a row the free bits fix the leading ones, so the row lists
    one translate along an affine bijection with F_2^(n-d), and the
    characters of F_2^n restricted to it are the characters of the column
    index: one transform along the rows gives every bias, and the worst
    column, its bits put back on the free coordinates, is the witness.
    """
    d = len(basis)
    leads = {int(b).bit_length() - 1 for b in basis}
    free = [i for i in range(n) if i not in leads]
    col = np.zeros(n, dtype=np.int64)  # e_j -> its column bit, 0 on leading bits
    col[free] = 1 << np.arange(n - d)
    points = np.empty((1 << d, 1 << (n - d)), dtype=np.int64)
    points[coset_ids(n, basis), _f2_table(col)] = np.arange(1 << n)
    rows = np.asarray(f, dtype=float)[points]
    density = rows.mean(axis=1)
    spec = np.abs(walsh_hadamard(rows - density[:, None]))
    witness = _f2_table(1 << np.array(free, dtype=np.int64))[spec.argmax(axis=1)]
    return [
        CosetEntry(
            representative=int(rep),
            size=points.shape[1],
            density=float(dens),
            max_bias=float(b),
            regular=bool(b <= eps + EPS_TOL),
            witness=int(w),
        )
        for rep, dens, b, w in zip(points.min(axis=1), density, spec.max(axis=1), witness)
    ]


def arithmetic_regularize(A, n: int, eps: float) -> CosetReport:
    """Find a subspace on most of whose translates the set looks Fourier-flat.

    ``A`` is an iterable of points or a 0/1 indicator of length 2^n of any
    dtype (a list of distinct points looks like one only at n <= 1).  A
    translate is regular when every character average of (1_A - density) over
    it is at most eps; the refinement ends once at most eps * 2^d fail.
    """
    if not 0 < eps <= 1:
        raise PreconditionError("eps must lie in (0, 1]")
    if not 0 <= n <= MAX_CUBE_N:  # before 2^n floats are allocated
        error = BudgetExceededError if n > MAX_CUBE_N else PreconditionError
        raise error(f"n must lie in 0..{MAX_CUBE_N}")
    arr = np.asarray(A)
    dense = arr.dtype.kind in "biuf" and arr.size == 1 << n
    if dense and np.all((arr == 0) | (arr == 1)):
        f = arr.astype(float)
    elif dense and arr.dtype.kind in "bf":
        raise PreconditionError("dense input must be a 0/1 indicator")
    else:
        f = indicator_from_set(n, A)
    basis, rounds = [], []
    while True:
        entries = coset_entries(f, n, basis, eps)
        witnesses = [e.witness for e in entries if not e.regular]
        energy = float(np.mean([e.density**2 for e in entries]))
        if rounds and energy - rounds[-1]["index_energy"] <= eps**3 - EPS_TOL:
            raise CertificateError(f"round {len(rounds)} gained at most eps^3 of index energy")
        rounds.append(
            {"codimension": len(basis), "irregular": len(witnesses), "index_energy": energy}
        )
        if len(witnesses) <= eps * len(entries) + EPS_TOL:
            break
        basis = f2_row_basis(basis + witnesses)
    return CosetReport(
        n=n,
        eps=eps,
        constraints=[int(b) for b in basis],
        entries=entries,
        irregular_count=len(witnesses),
        success=True,  # the loop ends only once the budget holds
        rounds=rounds,
    )
