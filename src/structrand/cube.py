"""Functions on the Hamming cube F_2^n: Fourier analysis and Reed-Muller codes.

A function f: F_2^n -> R is stored densely as an array of length 2^n indexed
by bit masks.  Characters are e_xi(x) = (-1)^{x . xi}; the normalized
Walsh-Hadamard transform returns the correlation table <f, e_xi>.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, PreconditionError
from .hilbert import AtomSet, DenseAtomSet

MAX_CUBE_N = 24
RM_MAX_CODES = 1 << 16  # Reed-Muller families are materialized up to this many codes
RM_MAX_CELLS = 1 << 24  # and up to this many code values in all


def cube_dim(f, cap=MAX_CUBE_N) -> int:
    """Dimension n of the cube a length-2^n array, or a stack of them along
    the last axis, lives on."""
    shape = np.shape(f)
    size = shape[-1] if shape else 1
    n = size.bit_length() - 1
    if size < 1 or size != 1 << n:
        raise DimensionMismatchError(f"length {size} is not a power of two")
    if n > cap:
        raise BudgetExceededError(f"n = {n} exceeds the configured cap {cap}")
    return n


def parity(x):
    """Parity of the set bits of a nonnegative integer array."""
    x = np.asarray(x).astype(np.uint64)
    return np.bitwise_count(x).astype(np.int64) & 1


def character(n: int, xi: int) -> np.ndarray:
    """The character e_xi as a dense +-1 array."""
    x = np.arange(1 << n, dtype=np.uint64)
    return 1.0 - 2.0 * parity(x & np.uint64(xi))


def walsh_hadamard(f) -> np.ndarray:
    """Normalized transform: out[xi] = 2^-n sum_x f(x) (-1)^{x . xi}.

    Works along the last axis, so a stack of functions is transformed row by
    row, each row bit-identically to the transform of that row alone.
    """
    n = cube_dim(f)
    v = np.array(f, dtype=float)
    shape = v.shape
    h = 1
    while h < 1 << n:
        v = v.reshape(-1, 2, h)
        top = v[:, 0, :] + v[:, 1, :]
        bot = v[:, 0, :] - v[:, 1, :]
        v = np.stack((top, bot), axis=1)
        h *= 2
    return v.reshape(shape) / (1 << n)


def inverse_walsh_hadamard(spectrum) -> np.ndarray:
    """Inverse of :func:`walsh_hadamard`: f(x) = sum_xi spec[xi] (-1)^{x . xi}."""
    n = cube_dim(spectrum)
    return walsh_hadamard(spectrum) * float(1 << n)


def ensure_pm_one(f):
    f = np.asarray(f, dtype=float)
    if not np.all(np.abs(np.abs(f) - 1.0) < 1e-12):
        raise PreconditionError("expected a +-1-valued function")
    return f


def mobius_transform(bits) -> np.ndarray:
    """Self-inverse XOR butterfly between truth tables and ANF coefficients.

    anf[m] = XOR of f over all x with x subset of m; applying it twice is the
    identity, so the same routine converts coefficients back to values.
    """
    v = np.array(bits, dtype=np.int64) & 1
    cube_dim(v)
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2, h)
        v[:, 1, :] ^= v[:, 0, :]
        h *= 2
    return v.reshape(-1)


def shift(f, h: int) -> np.ndarray:
    """The translate x -> f(x + h)."""
    f = np.asarray(f)
    idx = np.arange(f.size) ^ h
    return f[idx]


# --- F_2 linear algebra on bit-mask rows -----------------------------------


def f2_row_basis(masks) -> list[int]:
    """Row-echelon basis (as bit masks) of the span of the given masks."""
    basis = []
    for m in masks:
        m = int(m)
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
    return basis


def f2_rank(masks) -> int:
    return len(f2_row_basis(masks))


def f2_matrix_rank(mat) -> int:
    """Rank over F_2 of a 0/1 matrix (rows become bit masks)."""
    mat = np.asarray(mat) % 2
    masks = [int(sum(int(b) << j for j, b in enumerate(row))) for row in mat]
    return f2_rank(masks)


def f2_matvec_table(mat) -> np.ndarray:
    """Table of T.r over F_2 for every r, for an n x n 0/1 matrix T."""
    mat = np.asarray(mat) % 2
    n = mat.shape[0]
    cols = [int(sum(int(mat[i, j]) << i for i in range(n))) for j in range(n)]
    table = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):  # linearity: extend from masks below 2^j by xoring column j
        step = 1 << j
        table[step : 2 * step] = table[:step] ^ cols[j]
    return table


# --- polynomials over F_2 ---------------------------------------------------


def _canonical_monomials(monomials):
    # XOR semantics: a monomial appearing an even number of times cancels.
    odd = {}
    for mono in monomials:
        key = tuple(sorted(set(int(v) for v in mono)))
        odd[key] = not odd.get(key, False)
    kept = [m for m, present in odd.items() if present]
    kept.sort(key=lambda m: (len(m), m))
    return tuple(kept)


@dataclass(frozen=True)
class F2Polynomial:
    """A polynomial over F_2 in n variables, held as a canonical monomial set.

    Monomials are tuples of variable indices (the empty tuple is the constant
    term); the canonical order is by (degree, lexicographic variables).
    """

    n: int
    monomials: tuple

    @classmethod
    def from_monomials(cls, n, monomials):
        return cls(n=int(n), monomials=_canonical_monomials(monomials))

    @classmethod
    def zero(cls, n):
        return cls(n=int(n), monomials=())

    @classmethod
    def from_truth_table(cls, bits):
        n = cube_dim(bits)
        anf = mobius_transform(bits)
        monos = []
        for mask in np.flatnonzero(anf):
            monos.append(tuple(j for j in range(n) if (int(mask) >> j) & 1))
        return cls.from_monomials(n, monos)

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)

    def truth_table(self) -> np.ndarray:
        anf = np.zeros(1 << self.n, dtype=np.int64)
        for mono in self.monomials:
            mask = 0
            for v in mono:
                mask |= 1 << v
            anf[mask] = 1
        return mobius_transform(anf)

    def code(self) -> np.ndarray:
        """The +-1-valued function (-1)^P."""
        return 1.0 - 2.0 * self.truth_table().astype(float)

    def evaluate(self, x: int) -> int:
        total = 0
        for mono in self.monomials:
            if all((x >> v) & 1 for v in mono):
                total ^= 1
        return total

    def to_json(self) -> dict:
        return {"n": self.n, "monomials": [list(m) for m in self.monomials]}

    @classmethod
    def from_json(cls, obj):
        return cls.from_monomials(obj["n"], [tuple(m) for m in obj["monomials"]])

    def __str__(self):
        if not self.monomials:
            return "0"
        parts = []
        for m in self.monomials:
            parts.append("1" if not m else "*".join(f"x{v}" for v in m))
        return " + ".join(parts)


def monomials_up_to_degree(n, k):
    monos = [()]
    for deg in range(1, k + 1):
        monos.extend(combinations(range(n), deg))
    return monos


# --- atom families -----------------------------------------------------------


class CharacterAtomSet(AtomSet):
    """All 2^n characters; the violating-atom search is a transform scan."""

    exact = True

    def __init__(self, n):
        self.n = int(n)
        if self.n > MAX_CUBE_N:
            raise BudgetExceededError(f"n = {n} exceeds the cube cap {MAX_CUBE_N}")
        self.name = f"characters(n={n})"

    def __len__(self):
        return 1 << self.n

    def atom_vector(self, key):
        return character(self.n, int(key))

    def correlations(self, f):
        return walsh_hadamard(f)

    # defined on the class itself so that per-class wrappers can replace them
    candidates = AtomSet.candidates
    scan = AtomSet.scan


class ReedMullerAtomSet(DenseAtomSet):
    """All codes (-1)^P with deg P <= k, materialized for exhaustive scans.

    The enumeration has 2^(number of monomials) members; construction refuses
    anything beyond the count/memory budget and reports the offending count.
    """

    def __init__(self, n, k):
        self.n = int(n)
        self.k = int(k)
        if not 1 <= self.k <= self.n:
            raise PreconditionError("need 1 <= k <= n")
        monos = monomials_up_to_degree(self.n, self.k)
        count = 1 << len(monos)
        if count > RM_MAX_CODES or count * (1 << self.n) > RM_MAX_CELLS:
            raise BudgetExceededError(
                f"Reed-Muller enumeration for n={n}, k={k} has {count} codes, "
                f"beyond the budget"
            )
        self.monomials = monos
        size = 1 << self.n
        signs = np.empty((len(monos), size))
        x = np.arange(size, dtype=np.uint64)
        for j, mono in enumerate(monos):
            if not mono:
                signs[j] = -1.0
            else:
                on = np.ones(size, dtype=bool)
                for v in mono:
                    on &= ((x >> np.uint64(v)) & np.uint64(1)).astype(bool)
                signs[j] = np.where(on, -1.0, 1.0)
        codes = np.ones((1, size))
        for j in range(len(monos)):
            codes = np.vstack([codes, codes * signs[j]])
        self.matrix = codes  # +-1 rows have norm 1: DenseAtomSet's norm check is moot
        self.name = f"reed-muller(n={n}, deg<={k})"

    def polynomial(self, index: int) -> F2Polynomial:
        monos = [self.monomials[j] for j in range(len(self.monomials)) if (index >> j) & 1]
        return F2Polynomial.from_monomials(self.n, monos)

    def index_of(self, poly: F2Polynomial) -> int:
        index = 0
        positions = {m: j for j, m in enumerate(self.monomials)}
        for mono in poly.monomials:
            index |= 1 << positions[mono]
        return index

    def key_json(self, key):
        return self.polynomial(int(key)).to_json()

    # defined on the class itself so that per-class wrappers can replace them
    candidates = DenseAtomSet.candidates
    scan = DenseAtomSet.scan


def character_atoms(n) -> CharacterAtomSet:
    return CharacterAtomSet(n)


def reed_muller_atoms(n, k) -> ReedMullerAtomSet:
    return ReedMullerAtomSet(n, k)
